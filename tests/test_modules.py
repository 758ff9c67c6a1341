import json
import random
import re
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import coinvariants, sign_subgroup_module

import cubix.modules as modules
from cubix.cli import main
from cubix.freelie import mobius
from cubix.linalg import InvariantError, RationalMatrix
from cubix.modules import (
    BUILTIN_KINDS,
    ModuleSpec,
    SubgroupModule,
    builtin,
    character_count,
    class_function,
    closed_character,
    cyclic_action,
    induce,
    load_module,
    random_basis_change,
    restrict,
    serialize_module,
    sgn_coinvariants_dim,
    specht,
    trivial_subgroup_module,
)
from cubix.perm import (
    Permutation,
    PermutationGroup,
    adjacent_transposition,
    cycle_classes,
    cyclic_group,
    identity_permutation,
    symmetric_group,
    trivial_group,
    young_subgroup,
)


def random_permutation(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def test_builtin_dimensions():
    assert builtin("trivial", 4).dim == 1
    assert builtin("sign", 4).dim == 1
    assert builtin("regular", 3).dim == 6
    assert builtin("lie", 3).dim == 2
    assert builtin("tr_cyclic", 3).dim == 2
    assert builtin("lie_cyclic", 3).dim == 2
    assert builtin("lie_cyclic", 3).N == 4
    with pytest.raises(ValueError):
        builtin("nope", 3)


def test_action_composition_convention():
    # act(p * q) == act(p) * act(q) with (p * q)(i) = p(q(i))
    rng = random.Random(5)
    for kind in ("regular", "lie", "tr_cyclic"):
        m = builtin(kind, 4)
        for _ in range(25):
            p = random_permutation(rng, 4)
            q = random_permutation(rng, 4)
            assert m.act(p * q) == m.act(p) * m.act(q)


def test_action_factorization_independent():
    # inserting s_i s_i anywhere gives another valid factorization
    rng = random.Random(11)
    for kind in BUILTIN_KINDS:
        m = builtin(kind, 3)
        n = m.N
        for _ in range(50):
            p = random_permutation(rng, n)
            word = p.adjacent_factorization()
            k = rng.randrange(len(word) + 1)
            i = rng.randrange(1, n)
            redundant = word[:k] + [i, i] + word[k:]
            acc = RationalMatrix.identity(m.dim)
            for j in redundant:
                acc = acc * m.gen_actions[j - 1]
            assert acc == m.act(p)


def test_identity_acts_as_identity():
    for kind in BUILTIN_KINDS:
        m = builtin(kind, 3)
        assert m.act(identity_permutation(m.N)) == RationalMatrix.identity(m.dim)


def test_regular_module_is_right_multiplication():
    m = builtin("regular", 3)
    words = sorted(permutations((1, 2, 3)))
    index = {w: i for i, w in enumerate(words)}
    g = Permutation((2, 3, 1))
    a = m.act(g)
    for w in words:
        target = tuple(w[g(j + 1) - 1] for j in range(3))
        assert a.entry(index[w], index[target]) == 1


def test_regular_characters():
    m = builtin("regular", 4)
    assert m.character(identity_permutation(4)) == 24
    assert m.character(Permutation((2, 1, 3, 4))) == 0
    assert m.character(Permutation((2, 3, 4, 1))) == 0


def test_dependent_lie_brackets_are_an_invariant_error(monkeypatch, capsys):
    # the solver that restricts the word action to the brackets checks that
    # they are in echelon form: repeat the first bracket of lie(3)
    real = modules.lie_basis_multilinear
    monkeypatch.setattr(modules, "lie_basis_multilinear", lambda n: real(n)[:1] * len(real(n)))
    modules._build.cache_clear()
    message = "2 rows are not in echelon form: rows 0 and 1 lead at column 0"
    with pytest.raises(InvariantError, match=f"^{message}$"):
        builtin("lie", 3)
    assert main(["betti", "--family", "lie", "--n", "3", "--mode", "quotient"]) == 4
    assert capsys.readouterr().err == f"internal error: {message}\n"


def test_lie_module_frozen_matrices():
    m = builtin("lie", 3)
    assert m.gen_actions[0].to_rows() == [[-1, 0], [-1, 1]]
    assert m.gen_actions[1].to_rows() == [[0, 1], [1, 0]]
    assert m.character(Permutation((2, 3, 1))) == -1
    assert builtin("lie", 2).gen_actions[0].to_rows() == [[-1]]


def test_tr_cyclic_representatives_and_action():
    m = builtin("tr_cyclic", 3)
    assert m.basis_labels == ["123", "132"]
    # right multiplication by s1 sends coset of 123 to coset of 213 = coset of 132
    a = m.act(Permutation((2, 1, 3)))
    assert a.entry(0, 1) == 1


def test_sign_and_trivial_actions():
    s = builtin("sign", 3)
    t = builtin("trivial", 3)
    for g in symmetric_group(3).elements:
        assert s.act(g).entry(0, 0) == g.sign()
        assert t.act(g).entry(0, 0) == 1


def test_cyclic_action_spec_example():
    # the transposition of cyclic letters 0,1 negates [x1,x2]
    m = builtin("lie_cyclic", 2)
    assert m.gen_actions[0].to_rows() == [[-1]]


def test_cyclic_action_fixing_zero_is_relabeling():
    # generators s_2 ... s_n of S_{n+1} fix the cyclic letter; they must act
    # on the word basis by plain letter relabeling
    for n in (2, 3, 4):
        ass = cyclic_action(n)
        words = sorted(permutations(range(1, n + 1)))
        index = {w: i for i, w in enumerate(words)}
        for i in range(2, n + 1):
            a = ass.gen_actions[i - 1]
            # s_i on letters {1..n+1} fixes 1, swaps i, i+1; on word letters
            # {1..n} it swaps i-1 and i
            for w in words:
                target = tuple(
                    (i if x == i - 1 else i - 1 if x == i else x) for x in w
                )
                assert a.entry(index[w], index[target]) == 1


def test_cyclic_action_lie_stability_through_n5():
    for n in range(1, 6):
        m = builtin("lie_cyclic", n)
        assert m.dim == [1, 1, 2, 6, 24][n - 1]
        assert m.N == n + 1


def test_coinvariants_trivial_group_is_identity():
    m = builtin("lie", 3)
    proj, basis = coinvariants(m, trivial_group(3))
    assert proj == RationalMatrix.identity(2)
    assert len(basis) == 2


def test_coinvariants_sign_module_killed_by_averaging():
    proj, basis = coinvariants(builtin("sign", 2), symmetric_group(2))
    assert proj.is_zero()
    assert basis == []


def test_coinvariants_regular_by_young_subgroup():
    proj, basis = coinvariants(builtin("regular", 3), young_subgroup((2, 1)))
    assert proj * proj == proj
    assert len(basis) == 3
    # rank of an exact idempotent equals its trace
    assert proj.trace() == 3


def test_sgn_coinvariants_dimensions():
    for n in (2, 3, 4, 5):
        assert sgn_coinvariants_dim(builtin("regular", n), symmetric_group(n)) == 1
    expected_lie = {1: 1, 2: 1, 3: 0, 4: 0, 5: 0}
    for n, want in expected_lie.items():
        assert sgn_coinvariants_dim(builtin("lie", n), symmetric_group(n)) == want
    for n in (2, 3, 4, 5):
        want = 1 if n % 2 else 0
        assert sgn_coinvariants_dim(builtin("tr_cyclic", n), symmetric_group(n)) == want
    expected_cyc = {2: 1, 3: 0, 4: 0}
    for n, want in expected_cyc.items():
        assert (
            sgn_coinvariants_dim(builtin("lie_cyclic", n), symmetric_group(n + 1))
            == want
        )
    assert sgn_coinvariants_dim(builtin("sign", 3), symmetric_group(3)) == 1
    assert sgn_coinvariants_dim(builtin("trivial", 3), symmetric_group(3)) == 0


@pytest.mark.parametrize(
    "shift, module, value",
    [
        # one more at the identity: (0 + 1) / 6
        (lambda g: int(g == identity_permutation(3)), builtin("lie", 3), "1/6"),
        # minus the sign everywhere: (0 - 6) / 6
        (lambda g: -g.sign(), builtin("trivial", 3), "-1"),
    ],
    ids=["fraction", "negative"],
)
def test_a_broken_character_makes_the_sign_count_raise(shift, module, value, monkeypatch):
    real = modules.class_function
    monkeypatch.setattr(
        modules,
        "class_function",
        lambda module, group: {g: v + shift(g) for g, v in real(module, group).items()},
    )
    message = f"the sign-isotypic dimension of {module.name} is {value}, not a dimension"
    with pytest.raises(InvariantError, match=re.escape(message)):
        sgn_coinvariants_dim(module, symmetric_group(3))


def test_character_count_is_the_checked_class_function_sum():
    s3 = symmetric_group(3)
    # the trivial character's multiplicity: dim M_G, one class per orbit of S_3
    assert character_count(builtin("regular", 3), s3, lambda g: 1, 1, "dim") == 1
    assert character_count(builtin("lie", 3), s3, lambda g: 1, 1, "dim") == 0
    # the divisor divides the whole sum, and a quotient that is no integer raises
    assert character_count(builtin("regular", 3), s3, lambda g: 2, 2, "dim") == 1
    with pytest.raises(InvariantError, match="^half is 1/2, not a dimension$"):
        character_count(builtin("regular", 3), s3, lambda g: 1, 2, "half")


def test_mobius_values():
    assert [mobius(d) for d in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


@pytest.mark.parametrize("kind", BUILTIN_KINDS)
def test_closed_form_characters_equal_the_traced_ones(kind):
    # the counts read the closed form of a builtin module and never trace it
    for n in range(1, 6 if kind == "lie_cyclic" else 7):
        module = builtin(kind, n)
        group = symmetric_group(module.N)
        traced = {rep: module.character(rep) for rep, _ in cycle_classes(group)}
        closed = closed_character(kind, module.N)
        assert sorted(closed) == sorted(rep.cycle_type() for rep in traced)
        assert {rep: closed[rep.cycle_type()] for rep in traced} == traced, (kind, n)
        assert class_function(module, group) == traced


def test_other_modules_trace_their_class_function(monkeypatch):
    lie = builtin("lie", 4)
    moved = random_basis_change(lie, seed=3)
    assert lie.closed == closed_character("lie", 4) and moved.closed is None
    assert induce(trivial_subgroup_module(cyclic_group(4))).closed is None
    c4 = cyclic_group(4)
    sub = restrict(lie, c4)
    assert sub.closed is None
    assert class_function(sub, c4) == {g: sub.character(g) for g in c4.elements}
    # a traced module never reads a closed form
    monkeypatch.setattr(modules, "closed_character", None)
    group = symmetric_group(4)
    assert class_function(moved, group) == {
        rep: lie.character(rep) for rep, _ in cycle_classes(group)
    }


def _traced_by_act(module):
    group = symmetric_group(module.N)
    return {rep.cycle_type(): module.act(rep).trace() for rep, _ in cycle_classes(group)}


@pytest.mark.parametrize("kind", BUILTIN_KINDS)
def test_the_prefix_traced_character_is_the_trace_of_act(kind):
    for n in range(1, 6 if kind == "lie_cyclic" else 7):
        moved = random_basis_change(builtin(kind, n), seed=n)
        assert moved.closed is None
        assert moved.traced == _traced_by_act(moved), (kind, n)


def test_the_traced_character_multiplies_each_shared_prefix_once(monkeypatch):
    # V(3,2,1) in seminormal form has p/q entries; as a plain ModuleSpec it
    # has no closed form and is traced
    v = specht((3, 2, 1))
    module = ModuleSpec("V321", 6, v.dim, v.basis_labels, v.gen_actions)
    assert module.closed is None and any(a.den > 1 for a in module.gen_actions)
    calls = []
    real = RationalMatrix.__mul__
    monkeypatch.setattr(
        RationalMatrix, "__mul__", lambda a, b: (calls.append(1), real(a, b))[1]
    )
    traced = module.traced
    # s1s2, s1s2s3, s1s2s3s4, s1s2s4 and s1s3: the last factor of each of the
    # 11 words is folded into the trace, where act(rep) takes 21 products
    assert len(calls) == 5
    monkeypatch.setattr(RationalMatrix, "__mul__", real)
    assert traced == _traced_by_act(module) == v.closed
    assert class_function(module, symmetric_group(6)) == {
        rep: traced[rep.cycle_type()] for rep, _ in cycle_classes(symmetric_group(6))
    }
    # read once per module
    assert module.traced is traced


def test_act_starts_each_chain_at_its_first_generator(monkeypatch):
    lie = builtin("lie", 4)
    fresh = ModuleSpec("lie4", 4, lie.dim, lie.basis_labels, lie.gen_actions)
    for i, mat in enumerate(fresh.gen_actions, start=1):
        assert fresh.act(adjacent_transposition(4, i)) is mat
    p = Permutation((4, 3, 2, 1))
    want = lie.act(p)
    products = []
    real = RationalMatrix.__mul__
    monkeypatch.setattr(
        RationalMatrix, "__mul__", lambda a, b: (products.append(1), real(a, b))[1]
    )
    assert fresh.act(p) == want
    # a reduced word of 6 letters takes 5 products, and no identity factor
    assert len(products) == len(p.adjacent_factorization()) - 1 == 5


def _sgn_dim_by_elements(module, group):
    total = sum(g.sign() * module.character(g) for g in group.elements)
    return Fraction(total, group.order)


@pytest.mark.parametrize("kind", BUILTIN_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sgn_coinvariants_by_classes_is_the_element_sum(kind, n):
    module = builtin(kind, n)
    group = symmetric_group(module.N)
    assert sgn_coinvariants_dim(module, group) == _sgn_dim_by_elements(module, group)


@pytest.mark.parametrize(
    "group", [cyclic_group(3), cyclic_group(4), young_subgroup((2, 2))],
    ids=["C3<S3", "C4<S4", "S2xS2<S4"],
)
def test_sgn_coinvariants_over_subgroups_is_the_element_sum(group):
    n = group.degree
    for module in (
        trivial_subgroup_module(group),
        sign_subgroup_module(group),
        restrict(builtin("regular", n), group),
        restrict(builtin("lie", n), group),
    ):
        assert sgn_coinvariants_dim(module, group) == _sgn_dim_by_elements(module, group)


def test_induce_trivial_from_trivial_group_is_regular():
    ind = induce(trivial_subgroup_module(trivial_group(2)))
    reg = builtin("regular", 2)
    assert ind.dim == 2
    for g in symmetric_group(2).elements:
        assert ind.character(g) == reg.character(g)


def test_induce_trivial_from_c3_matches_tr_cyclic():
    ind = induce(trivial_subgroup_module(cyclic_group(3)))
    tr = builtin("tr_cyclic", 3)
    assert ind.dim == 2
    for g in symmetric_group(3).elements:
        assert ind.character(g) == tr.character(g)


def test_induce_dimension_formula():
    for group in (cyclic_group(4), young_subgroup((2, 2)), trivial_group(3)):
        from math import factorial

        ind = induce(sign_subgroup_module(group))
        assert ind.dim == factorial(group.degree) // group.order


def all_subgroups_s4():
    s4 = symmetric_group(4)
    elems = s4.elements
    seen = {}
    for a in elems:
        for b in elems:
            g = PermutationGroup(4, (a, b))
            key = frozenset(p.images for p in g.elements)
            seen.setdefault(key, g)
    return list(seen.values())


def test_frobenius_reciprocity_over_all_s4_subgroups():
    subs = all_subgroups_s4()
    assert len(subs) == 30
    s4 = symmetric_group(4)
    for g in subs:
        triv = trivial_subgroup_module(g)
        sgn = sign_subgroup_module(g)
        lhs_triv = sgn_coinvariants_dim(induce(triv), s4)
        rhs_triv = sgn_coinvariants_dim(triv, g)
        assert lhs_triv == rhs_triv
        lhs_sgn = sgn_coinvariants_dim(induce(sgn), s4)
        assert lhs_sgn == sgn_coinvariants_dim(sgn, g) == 1


def test_restrict_roundtrip_characters():
    m = builtin("lie", 4)
    h = young_subgroup((2, 2))
    r = restrict(m, h)
    for g in h.elements:
        assert r.character(g) == m.character(g)


def test_subgroup_module_rejects_non_action():
    c3 = cyclic_group(3)
    bad = RationalMatrix.from_rows([[-1]])
    with pytest.raises(ValueError, match="do not define an action"):
        SubgroupModule("bad", c3, 1, [bad])


def test_validation_names_first_violated_relation():
    two = RationalMatrix.from_rows([[2]])
    with pytest.raises(ValueError, match="s1 does not square"):
        ModuleSpec("m", 2, 1, ["b"], [two])
    # braid violation: s1 -> [1], s2 -> [-1] squares fine, braid fails only
    # in higher dims; use permutation-ish 2x2 matrices
    a = RationalMatrix.from_rows([[0, 1], [1, 0]])
    b = RationalMatrix.from_rows([[1, 0], [0, -1]])
    with pytest.raises(ValueError, match="braid relation s1 s2 s1"):
        ModuleSpec("m", 3, 2, ["u", "v"], [a, b])
    # braid pairs pass but the distant pair does not commute
    swap12 = RationalMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    swap23 = RationalMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    with pytest.raises(ValueError, match="s1 and s3 do not commute"):
        ModuleSpec("m", 4, 3, ["u", "v", "w"], [swap12, swap12, swap23])


def test_custom_module_json_roundtrip(tmp_path):
    m = builtin("lie", 3)
    data = serialize_module(m)
    again = load_module(data)
    assert again.dim == m.dim
    for g in symmetric_group(3).elements:
        assert again.act(g) == m.act(g)
    path = tmp_path / "mod.json"
    import json

    path.write_text(json.dumps(data))
    from_file = load_module(str(path))
    assert from_file.basis_labels == m.basis_labels


def test_custom_module_missing_field():
    with pytest.raises(ValueError, match="missing field"):
        load_module({"name": "x", "N": 2, "dim": 1, "basis_labels": ["b"]})


@pytest.mark.parametrize("zero", [False, 0.0])
def test_a_zero_spelled_as_a_bool_or_a_float_is_refused(zero, tmp_path, capsys):
    data = {"name": "bad", "N": 2, "dim": 2, "basis_labels": ["u", "v"],
            "generators": [[[1, zero], [0, 1]]]}
    message = f"bad: generator s1 entry {zero!r} is not an int or a 'p/q' string"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_module(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["betti", "--family", "custom", "--custom", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_zero_entries_are_left_out_in_every_spelling():
    data = {"name": "swap", "N": 2, "dim": 3, "basis_labels": ["u", "v", "w"],
            "generators": [[[0, "1", "0"], ["1", 0, "0/5"], [" 0", "-0", 1]]]}
    (a,) = load_module(data).gen_actions
    assert a == RationalMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert a.rows == {0: {1: 1}, 1: {0: 1}, 2: {2: 1}}


def test_custom_module_fraction_entries():
    data = {
        "name": "half",
        "N": 2,
        "dim": 2,
        "basis_labels": ["u", "v"],
        "generators": [[["-1/2", "3/2"], ["1/2", "1/2"]]],
    }
    m = load_module(data)
    a = m.gen_actions[0]
    assert a.entry(0, 0) == Fraction(-1, 2)
    assert a * a == RationalMatrix.identity(2)


def test_random_basis_change_preserves_characters():
    m = builtin("lie", 4)
    conj = random_basis_change(m, seed=42)
    for g in symmetric_group(4).elements:
        assert conj.character(g) == m.character(g)
    assert conj.dim == m.dim
    # also well defined for the regular module
    conj2 = random_basis_change(builtin("tr_cyclic", 4), seed=7)
    assert conj2.dim == 6
