"""Word complexes, orbit assembly, and Betti tables.

Oracle values: small differentials and orbit counts are checked against
hand expansions, dimension sequences against the closed-form counts they
must reproduce (word counts, Lyndon counts, necklace counts), and Betti
tables against independent mode/route recomputations.
"""

import gc
import sys
import time
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from conftest import (
    clear_realization_caches,
    coface_differential_columns,
    coinvariants,
    diagonal_basis_change,
    entrywise_differential,
    entrywise_operator_matrix,
    fraction_class_coords,
    general_fixed_words,
    halved_basis_change,
    kron_naive_projector,
    modules_and_groups,
    naive_projector,
    per_word_position_matrix,
    sign_subgroup_module,
    stacked_coinvariant_basis,
    subset_fixed_onto_words,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import cubix.cubical as cubical
import cubix.modules as modules
from cubix.cli import main
from cubix.cubical import (
    BettiRow,
    CochainComplex,
    CoinvariantBasis,
    DimensionCapExceeded,
    OrbitComplexBuilder,
    apply_differential,
    coface,
    compositions,
    cubical_complex,
    differential,
    differential_columns,
    fixed_onto_words,
    fixed_words,
    full_complex,
    generated_subgroup,
    identity_trace,
    orbit_decomposition,
    position_action,
    position_indices,
    position_matrix,
    sort_transfer,
    sorted_word,
    surjective_words,
    word_images,
    words,
    _checked_table,
)
from cubix.freelie import witt_dim
from cubix.harrison import (
    dynkin_terms,
    dynkin_trace,
    harrison_complex,
    orbit_slot_operator,
    slot_action,
)
from cubix.linalg import (
    InvariantError,
    RationalMatrix,
    RowSpanSolver,
    SubspaceEscape,
    image_basis,
    rank,
)
from cubix.modules import (
    BUILTIN_KINDS,
    builtin,
    induce,
    random_basis_change,
    restrict,
    trivial_subgroup_module,
)
from cubix.perm import (
    Permutation,
    PermutationGroup,
    _partitions,
    cyclic_group,
    identity_permutation,
    symmetric_group,
    trivial_group,
    young_subgroup,
)
from cubix.realizations import direct_complex
from cubix.suites import chk_concentrated


def test_words_and_labels():
    assert words(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(words(3, 4)) == 64


def test_position_action_is_left_action():
    g = Permutation((2, 3, 1))
    h = Permutation((2, 1, 3))
    w = (5, 7, 9)
    # (g.w)(p) = w(g^{-1}(p))
    assert position_action(g, w) == (9, 5, 7)
    lhs = position_action(g * h, w)
    rhs = position_action(g, position_action(h, w))
    assert lhs == rhs


@pytest.mark.parametrize("group", [symmetric_group(3), cyclic_group(4)], ids=["S3", "C4"])
def test_position_indices_are_the_position_action(group):
    n = group.degree
    for m in (1, 2, 3):
        ws = words(n, m)
        index = {w: i for i, w in enumerate(ws)}
        for g in group.elements:
            assert position_indices(g, n, m) == [index[position_action(g, w)] for w in ws]
            assert position_matrix(g, n, m) == per_word_position_matrix(g, n, m)


@pytest.mark.parametrize("group", [symmetric_group(3), cyclic_group(4)], ids=["S3", "C4"])
def test_position_indices_with_a_relabeling_are_t_after_g(group):
    # the word-index helper of the naive projector and the Eulerian matrix:
    # with t, the index of t * (g.w), letters relabeled after positions move
    n = group.degree
    for m in (1, 2, 3):
        ws = words(n, m)
        index = {w: i for i, w in enumerate(ws)}
        for t in symmetric_group(m).elements:
            for g in group.elements:
                want = [index[slot_action(t, position_action(g, w))] for w in ws]
                assert position_indices(g, n, m, t) == want


def test_coface_splits_and_shifts():
    # middle coface splits every letter equal to i into {i, i+1}
    assert coface(1, (1, 1), 1) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert coface(0, (1, 2), 2) == [(2, 3)]
    assert coface(3, (1, 2), 2) == [(1, 2)]
    assert sorted(coface(2, (1, 2), 2)) == [(1, 2), (1, 3)]
    with pytest.raises(ValueError):
        coface(4, (1, 2), 2)


def test_differential_n1_hand_values():
    # one position: d on C^1 vanishes, d(e1) = -e1 and d(e2) = +e3 at m=2
    assert differential(1, 1).to_rows() == [[0, 0]]
    assert differential(1, 2).to_rows() == [[-1, 0, 0], [0, 0, 1]]


def test_differential_n2_m1_hand_value():
    cols = differential_columns(2, 1)
    tgt = {w: i for i, w in enumerate(words(2, 2))}
    assert cols[0] == {tgt[(1, 2)]: -1, tgt[(2, 1)]: -1}


@pytest.mark.parametrize(
    "n, m", [(n, m) for n in range(1, 5) for m in range(1, 7)] + [(5, m) for m in range(1, 5)]
)
def test_differential_columns_match_the_coface_columns(n, m):
    # the inverse letter maps give the same dicts, key order included
    cols = differential_columns(n, m)
    assert [list(c.items()) for c in cols] == [
        list(c.items()) for c in coface_differential_columns(n, m)
    ]


def test_differential_matches_its_entrywise_oracle():
    for n in (1, 2, 3, 4):
        for m in (1, 2, 3, 4, 5):
            assert differential(n, m) == entrywise_differential(n, m)


NAIVE_PROJECTOR_CASES = {
    **{
        f"{kind}{k}": (lambda kind=kind, k=k: builtin(kind, k))
        for kind in BUILTIN_KINDS
        for k in (1, 2, 3)
    },
    "lie3-basis-change": lambda: random_basis_change(builtin("lie", 3), 7),
    "lie_cyclic3-halved": lambda: halved_basis_change(builtin("lie_cyclic", 3)),
    "trivial<C3": lambda: trivial_subgroup_module(cyclic_group(3)),
    "trivial<S2xS2": lambda: trivial_subgroup_module(young_subgroup((2, 2))),
    "sign<S2xS2": lambda: sign_subgroup_module(young_subgroup((2, 2))),
}


@pytest.mark.parametrize("make", NAIVE_PROJECTOR_CASES.values(), ids=NAIVE_PROJECTOR_CASES)
def test_naive_projector_matches_its_kronecker_oracle(make):
    module = make()
    group = getattr(module, "group", None) or symmetric_group(module.N)
    if module.name.endswith("~half"):
        assert any(module.act(g).den > 1 for g in group.elements)
    for m in (1, 2, 3, 4):
        assert naive_projector(module, group, m) == kron_naive_projector(module, group, m)


@pytest.mark.parametrize("make", NAIVE_PROJECTOR_CASES.values(), ids=NAIVE_PROJECTOR_CASES)
def test_naive_basis_spans_the_projector_image(make):
    # one word per position orbit spans what every row of the projector spans
    module = make()
    group = getattr(module, "group", None) or symmetric_group(module.N)
    for m in (1, 2, 3, 4):
        size = module.dim * m ** group.degree
        basis = cubical._naive_basis(module, group, m)
        image = image_basis(naive_projector(module, group, m))
        assert len(basis) == len(image)
        RowSpanSolver(basis, size).solve(RationalMatrix.from_row_dicts(image, len(image), size))


def test_differential_squares_to_zero_on_word_spaces():
    for n, m_max in ((1, 4), (2, 4), (3, 4)):
        fc = full_complex(n, m_max)
        assert fc.check_d_squared()


def test_apply_differential_is_the_product_with_one_block_per_module_vector():
    # rational rows over two module coordinates: the result keeps x's den
    n, m = 2, 2
    x = RationalMatrix.from_rows(
        [[Fraction(1, 2), 0, 3, 0, 0, Fraction(-1, 3), 0, 1], [0] * 7 + [Fraction(2, 5)]]
    )
    blocks = RationalMatrix.identity(2).kron(differential(n, m))
    got = apply_differential(x, differential_columns(n, m), (m + 1) ** n)
    assert got == x * blocks
    assert got.den > 1


def test_differential_is_equivariant():
    # d(g.w) = g.d(w) for the position action
    n = 3
    for m in (1, 2, 3):
        d = differential(n, m)
        for g in symmetric_group(n).elements:
            left = position_matrix(g, n, m) * d
            right = d * position_matrix(g, n, m + 1)
            assert left == right


def test_full_complex_concentrated_in_degree_n():
    assert full_complex(1, 3).betti_table().bettis() == (1, 0, 0)
    assert full_complex(2, 4).betti_table().bettis() == (0, 1, 0, 0)
    assert full_complex(3, 5).betti_table().bettis() == (0, 0, 1, 0, 0)


def _counted_ranks(monkeypatch):
    """The matrices ``cubical.rank`` is called on from now on."""
    calls = []

    def counted(a):
        calls.append(a)
        return rank(a)

    monkeypatch.setattr(cubical, "rank", counted)
    return calls


def test_full_complex_computes_each_rank_once_and_still_refuses_above_the_cap(monkeypatch):
    clear_realization_caches()
    calls = _counted_ranks(monkeypatch)
    full_complex(3, 3).betti_table()
    assert len(calls) == 3
    assert full_complex(3, 3, cap=100).betti_table() == full_complex(3, 3).betti_table()
    assert len(calls) == 3
    # 1 + 8 + 27 + 64 words in degrees 1..4
    with pytest.raises(DimensionCapExceeded) as info:
        full_complex(3, 3, cap=99)
    assert (info.value.required, info.value.cap) == (100, 99)


def test_a_dropped_full_complex_is_freed_and_its_ranks_stay_shared(monkeypatch):
    clear_realization_caches()
    cx = full_complex(3, 5)
    table = cx.betti_table()
    ref = weakref.ref(cx)
    del cx
    gc.collect()
    assert ref() is None
    calls = _counted_ranks(monkeypatch)
    assert full_complex(3, 5).betti_table() == table
    # a shorter complex on the same n reads the same ranks
    assert full_complex(3, 2).betti_table().rows == table.rows[:2]
    assert calls == []


def antisymmetrizer_vector(n: int) -> dict:
    """sum_s sign(s) (s(1), ..., s(n)) as {word index in degree n: sign}."""
    index = {w: i for i, w in enumerate(words(n, n))}
    return {index[imgs]: Permutation(imgs).sign() for imgs in permutations(range(1, n + 1))}


def test_antisymmetrizer_is_a_nontrivial_cocycle():
    from cubix.linalg import rank

    for n in (2, 3):
        vec = antisymmetrizer_vector(n)
        assert len(vec) == [1, 2, 6, 24][n - 1]
        vmat = RationalMatrix.from_row_dicts([vec], 1, n ** n)
        assert (vmat * differential(n, n)).is_zero()
        # not a coboundary: adjoining it to the image rows raises the rank
        image = differential(n, n - 1)
        rows = [image.row_dict(i) for i in range(image.nrows)]
        base = rank(RationalMatrix.from_row_dicts(rows, len(rows), n ** n))
        grown = rank(RationalMatrix.from_row_dicts(rows + [vec], len(rows) + 1, n ** n))
        assert grown == base + 1


def test_orbit_decomposition_symmetric_group():
    group = symmetric_group(3)
    orbits = orbit_decomposition(3, 2, group)
    assert len(orbits) == 4
    # orbit-stabilizer
    assert sum(group.order // o.stabilizer.order for o in orbits) == 2 ** 3
    reps = sorted(o.rep for o in orbits)
    assert reps == [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]
    stab = {o.rep: o.stabilizer.order for o in orbits}
    assert stab == {(1, 1, 1): 6, (1, 1, 2): 2, (1, 2, 2): 2, (2, 2, 2): 6}


@pytest.mark.parametrize(
    "group",
    [trivial_group(n) for n in (2, 3, 4, 5)]
    + [cyclic_group(3), cyclic_group(4), young_subgroup((2, 2))],
    ids=["1<S2", "1<S3", "1<S4", "1<S5", "C3<S3", "C4<S4", "S2xS2<S4"],
)
def test_surjective_orbits_equal_the_filtered_walk(group):
    n = group.degree
    for m in range(1, n + 2):
        surjective = orbit_decomposition(n, m, group, surjective=True)
        walk = [o for o in orbit_decomposition(n, m, group) if len(set(o.rep)) == m]
        assert surjective == walk
        for a, b in zip(surjective, walk):
            # same member order, the least member as representative, and
            # transfers with w = g.rep
            assert list(a.transfers.items()) == list(b.transfers.items())
            assert a.rep == min(a.transfers)
            assert all(position_action(g, a.rep) == w for w, g in a.transfers.items())
    assert cubical.surjective_words(3, 2) == [
        w for w in words(3, 2) if len(set(w)) == 2
    ]


def test_orbit_decomposition_proper_subgroup():
    orbits = orbit_decomposition(3, 2, cyclic_group(3))
    assert len(orbits) == 4
    assert sum(len(o.transfers) for o in orbits) == 8
    sizes = sorted(len(o.transfers) for o in orbits)
    assert sizes == [1, 1, 3, 3]


def test_sort_transfer_recovers_word():
    for w in words(3, 3):
        rep, g = sort_transfer(w)
        assert rep == tuple(sorted(w))
        assert position_action(g, rep) == w


def content_of(w, m: int):
    c = [0] * m
    for x in w:
        c[x - 1] += 1
    return tuple(c)


def test_compositions_cover_contents():
    cs = list(compositions(3, 2))
    assert cs == [(3, 0), (2, 1), (1, 2), (0, 3)]
    for c in cs:
        assert content_of(sorted_word(c), 2) == c


def test_regular_module_gives_word_dimensions():
    # k[G] tensored over G frees the positions: dimension m^n in degree m
    cx = cubical_complex(builtin("regular", 3), symmetric_group(3), 4)
    assert [cx.dims[m] for m in range(1, 6)] == [1, 8, 27, 64, 125]
    assert cx.check_d_squared()
    assert cx.betti_table().bettis() == (0, 0, 1, 0)


def test_lie_dimensions_match_lyndon_counts():
    for n in (2, 3, 4):
        cx = cubical_complex(builtin("lie", n), symmetric_group(n), n + 1)
        for m in range(1, n + 3):
            assert cx.dims[m] == witt_dim(m, n)


def test_tr_dimensions_match_necklace_counts():
    # (1/m-ish) cyclic orbit counts of length-n words over m letters
    def necklaces(m, n):
        from math import gcd

        return sum(m ** gcd(r, n) for r in range(n)) // n

    for n in (2, 3):
        cx = cubical_complex(builtin("tr_cyclic", n), symmetric_group(n), n + 1)
        for m in range(1, n + 3):
            assert cx.dims[m] == necklaces(m, n)


def test_orbit_complex_d_squared():
    cases = [
        (builtin("lie", 4), symmetric_group(4), 4),
        (builtin("tr_cyclic", 3), symmetric_group(3), 4),
        (builtin("lie_cyclic", 3), symmetric_group(4), 4),
        (trivial_subgroup_module(cyclic_group(3)), cyclic_group(3), 4),
    ]
    for module, group, m_max in cases:
        assert cubical_complex(module, group, m_max).check_d_squared()


def test_orbit_and_naive_modes_agree():
    for kind in ("trivial", "sign", "regular", "lie", "tr_cyclic"):
        for n in (1, 2, 3):
            module = builtin(kind, n)
            group = symmetric_group(n)
            a = cubical_complex(module, group, 3, mode="orbit")
            b = cubical_complex(module, group, 3, mode="naive")
            assert [a.dims[m] for m in range(1, 5)] == [
                b.dims[m] for m in range(1, 5)
            ]
            assert b.check_d_squared()
            assert a.betti_table().bettis() == b.betti_table().bettis()


def test_naive_mode_on_proper_subgroup():
    group = cyclic_group(3)
    module = trivial_subgroup_module(group)
    a = cubical_complex(module, group, 3, mode="orbit")
    b = cubical_complex(module, group, 3, mode="naive")
    assert [a.dims[m] for m in range(1, 5)] == [1, 4, 11, 24]
    assert [b.dims[m] for m in range(1, 5)] == [1, 4, 11, 24]
    assert a.betti_table().bettis() == b.betti_table().bettis() == (0, 0, 1)


def test_naive_mode_enforces_cap():
    with pytest.raises(DimensionCapExceeded) as info:
        cubical_complex(
            builtin("regular", 3), symmetric_group(3), 4, mode="naive", cap=100
        )
    # |G| times the size dim M (m_max + 1)^n of the top degree
    assert info.value.required == 6 * 6 * 5 ** 3
    assert info.value.cap == 100


def test_betti_tables_for_small_families():
    lie2 = cubical_complex(builtin("lie", 2), symmetric_group(2), 4).betti_table()
    assert lie2.bettis() == (0, 1, 0, 0)
    assert lie2.graded_symbol() == "k[-2]"
    tr2 = cubical_complex(builtin("tr_cyclic", 2), symmetric_group(2), 4).betti_table()
    assert tr2.bettis() == (0, 0, 0, 0)
    assert tr2.graded_symbol() == "0"
    rows = lie2.as_dict()["rows"]
    assert rows[1] == {"m": 2, "dim": 1, "rank_d": 0, "betti": 1}


def test_verify_cor2_reports():
    # the expected dimension defaults to dim(M (x)_G sgn)
    for kind, n, dim in (("sign", 3, 1), ("trivial", 3, 0), ("regular", 4, 1)):
        ok, detail = chk_concentrated(f"{kind} n={n}", kind, n)
        assert ok and detail.endswith(f", expected {dim} at m={n}")


def test_induced_module_matches_subgroup_complex():
    group = cyclic_group(3)
    module = trivial_subgroup_module(group)
    sub = cubical_complex(module, group, 4)
    ind = cubical_complex(induce(module), symmetric_group(3), 4)
    assert [sub.dims[m] for m in range(1, 6)] == [ind.dims[m] for m in range(1, 6)]
    assert sub.betti_table().bettis() == ind.betti_table().bettis()


def test_restricted_module_complex_over_subgroup():
    # restricting the sign module to C3 makes it trivial, so the tables match
    group = cyclic_group(3)
    sgn = restrict(builtin("sign", 3), group)
    triv = trivial_subgroup_module(group)
    a = cubical_complex(sgn, group, 3)
    b = cubical_complex(triv, group, 3)
    assert a.betti_table().bettis() == b.betti_table().bettis()


def test_complex_rejects_bad_shapes():
    # diffs[1] maps degree 1 to degree 2, so it is dims[1] x dims[2] = 1 x 2;
    # 2 x 1, the transpose, is refused like any other wrong shape
    for shape in ((3, 1), (2, 1)):
        with pytest.raises(ValueError, match=r"expected \(1, 2\)$"):
            CochainComplex("bad", 1, 1, {1: 1, 2: 2}, {1: RationalMatrix.zeros(*shape)})
    CochainComplex("good", 1, 1, {1: 1, 2: 2}, {1: RationalMatrix.zeros(1, 2)})


ORIENTATION_CASES = {
    "full": lambda: full_complex(3, 3),
    "orbit": lambda: cubical_complex(builtin("regular", 3), symmetric_group(3), 3),
    "naive": lambda: cubical_complex(builtin("regular", 3), symmetric_group(3), 3, mode="naive"),
    # Q's four degrees, as quotient mode builds them
    "quotient": lambda: CochainComplex("Q", 4, 3, *word_images(
        OrbitComplexBuilder(builtin("lie", 4), symmetric_group(4), surjective=True), 4
    )),
    "harrison": lambda: harrison_complex(builtin("regular", 3), symmetric_group(3), 3),
    "direct-lie": lambda: direct_complex("lie", 3, 4),
    "direct-tr": lambda: direct_complex("tr", 3, 4),
}


@pytest.mark.parametrize("make", ORIENTATION_CASES.values(), ids=ORIENTATION_CASES)
def test_every_differential_has_one_row_per_source_vector(make):
    cx = make()
    for m in range(1, cx.m_max + 1):
        assert cx.diffs[m].shape == (cx.dims[m], cx.dims[m + 1])
    # a transposed differential could pass only if every one were square
    assert any(d.nrows != d.ncols for d in cx.diffs.values())


def test_the_word_differential_holds_the_cached_rows_themselves():
    rows = differential_columns(3, 2)
    d = differential(3, 2)
    assert sorted(d.rows) == list(range(len(rows)))
    assert all(d.rows[j] is row for j, row in enumerate(rows))



def test_an_impossible_betti_row_names_itself():
    rows = [BettiRow(1, 0, 0, 1)]
    with pytest.raises(InvariantError) as exc:
        _checked_table("bad", 1, rows)
    assert "bad: impossible Betti row BettiRow(m=1, dim=0, rank=0, betti=1)" in str(exc.value)
    assert _checked_table("ok", 1, [BettiRow(1, 1, 0, 1)]) == _checked_table(
        "ok", 1, [BettiRow(1, 1, 0, 1)]
    )


# -- coinvariant bases against the averaging projector ----------------------


def positive_compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in positive_compositions(n - first):
            yield (first,) + rest


def assert_matches_averaging(module, group):
    """Return the basis after checking it against the averaging projector.

    The projector P is idempotent, so the rows of 1 - P span its kernel;
    the classes kill all of them, and a rank-k class map has a kernel of
    exactly that dimension.
    """
    basis = CoinvariantBasis(module, group)
    proj, _ = coinvariants(module, group)
    dim = module.dim
    assert basis.k == rank(proj)
    ident = RationalMatrix.identity(dim)
    assert basis.class_block(ident - proj).is_zero()
    classes = basis.class_block(ident)
    assert rank(classes) == basis.k
    return basis


@pytest.mark.parametrize("kind", BUILTIN_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coinvariant_basis_matches_averaging_over_young_subgroups(kind, n):
    module = builtin(kind, n)
    for content in positive_compositions(module.N):
        assert_matches_averaging(module, young_subgroup(content))


@pytest.mark.parametrize("kind", ["lie_cyclic", "tr_cyclic"])
def test_coinvariant_basis_matches_averaging_after_a_basis_change(kind):
    # seed 3 gives classes with fractional coordinates
    module = random_basis_change(builtin(kind, 3), 3)
    dens = [
        assert_matches_averaging(module, young_subgroup(content)).w_matrix.den
        for content in positive_compositions(module.N)
    ]
    assert max(dens) > 1


@pytest.mark.parametrize(
    "group, kinds",
    [
        (cyclic_group(3), ("sign", "regular", "lie", "tr_cyclic")),
        (young_subgroup((2, 2)), ("sign", "regular", "lie", "tr_cyclic")),
    ],
    ids=["C3<S3", "S2xS2<S4"],
)
def test_coinvariant_basis_matches_averaging_on_subgroup_stabilizers(group, kinds):
    stabilizers = {
        orbit.stabilizer
        for m in range(1, 4)
        for orbit in orbit_decomposition(group.degree, m, group)
    }
    assert any(s.order > 1 for s in stabilizers)
    for kind in kinds:
        for stab in stabilizers:
            assert_matches_averaging(builtin(kind, group.degree), stab)


def test_a_flipped_class_sign_is_a_subspace_escape(monkeypatch, capsys):
    real = cubical.echelon_basis

    def flipped(rows, ncols):
        echelon = real(rows, ncols)
        # only the union sweep that CoinvariantBasis reads: the relation
        # blocks stay true.  Negating a non-leading entry r[t] of the row r
        # leading at p makes the back-substitution give e_p a wrong class
        row = next((row for row in echelon if len(row) > 1), None)
        if row is not None and sys._getframe(1).f_code.co_name == "__init__":
            t = max(row)
            row[t] = -row[t]
        return echelon

    monkeypatch.setattr(cubical, "echelon_basis", flipped)
    with pytest.raises(SubspaceEscape):
        CoinvariantBasis(builtin("regular", 3), symmetric_group(3))
    assert main(["betti", "--family", "ass", "--n", "3"]) == 4
    assert capsys.readouterr().err.startswith("internal error:")


def test_subgroup_stabilizers_get_greedy_generating_sets():
    group = cyclic_group(4)
    for m in range(1, 5):
        for orbit in orbit_decomposition(4, m, group):
            stab = orbit.stabilizer
            assert len(stab.generators) <= 1
            assert identity_permutation(4) not in stab.generators
            fixing = {g.images for g in group.elements if position_action(g, orbit.rep) == orbit.rep}
            assert {g.images for g in stab.elements} == fixing


@pytest.mark.parametrize(
    "group",
    [trivial_group(n) for n in (1, 2, 3, 4)]
    + [cyclic_group(3), cyclic_group(4), young_subgroup((2, 2))],
    ids=["1<S1", "1<S2", "1<S3", "1<S4", "C3<S3", "C4<S4", "S2xS2<S4"],
)
def test_shared_stabilizer_generators_equal_the_per_orbit_ones(group):
    n = group.degree
    for surjective in (False, True):
        builder = OrbitComplexBuilder(builtin("trivial", n), group, surjective)
        element_sets = set()
        for m in range(1, n + 2):
            for orbit in orbit_decomposition(n, m, group, surjective):
                fixing = [g for g in group.elements if position_action(g, orbit.rep) == orbit.rep]
                assert orbit.stabilizer.generators == generated_subgroup(n, fixing).generators
                element_sets.add(frozenset(g.images for g in fixing))
            builder.degree(m)
        # equal stabilizers share one coinvariant basis
        assert len(builder._coinv_cache) == len(element_sets)


def builder_bases(module, group):
    """(stabilizer, basis) of every stabilizer that the orbit and the
    quotient builders meet through degree n + 1."""
    bases = []
    for surjective in (False, True):
        builder = OrbitComplexBuilder(module, group, surjective)
        for m in range(1, group.degree + 2):
            builder.degree(m)
        bases.extend(builder._coinv_cache.items())
    return bases


BLOCK_CASES = {
    **{
        f"{kind}{n}": (lambda kind=kind, n=n: builtin(kind, n), None)
        for kind in BUILTIN_KINDS
        for n in (1, 2, 3, 4)
    },
    # seeds with fractional classes
    "lie4-seed3": (lambda: random_basis_change(builtin("lie", 4), 3), None),
    "lie_cyclic3-seed3": (lambda: random_basis_change(builtin("lie_cyclic", 3), 3), None),
    **{
        f"{kind}<{name}": (lambda kind=kind: builtin(kind, 4), group)
        for kind in ("sign", "regular", "lie", "tr_cyclic")
        for name, group in (("C4", cyclic_group(4)), ("S2xS2", young_subgroup((2, 2))))
    },
}


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_generator_blocks_give_the_stacked_rows_basis(case):
    make, group = BLOCK_CASES[case]
    module = make()
    if group is None:
        group = symmetric_group(module.N)
    else:
        module = restrict(module, group)
    bases = builder_bases(module, group)
    assert bases
    for stab, basis in bases:
        assert (basis.free, basis.w_matrix) == stacked_coinvariant_basis(module, stab)
    if "seed" in case:
        assert max(basis.w_matrix.den for _, basis in bases) > 1


def fractional_module():
    """lie(4) after a seeded shear and a rational diagonal change of basis:
    act(g) has Fraction entries and classes fractional coordinates."""
    module = random_basis_change(builtin("lie", 4), 3)
    diag = [Fraction(1, 2), 3, Fraction(-2, 3), 1, Fraction(5, 4), -1]
    return diagonal_basis_change(module, diag, "lie4~diag")


def has_fractions(mats):
    return any(a.den > 1 for a in mats)


def test_class_block_rows_over_the_scale_are_the_class_coordinates():
    module = fractional_module()
    group = symmetric_group(4)
    assert has_fractions(module.gen_actions)
    bases = builder_bases(module, group)
    assert max(basis.w_matrix.den for _, basis in bases) > 1
    assert any(basis.k == module.dim for _, basis in bases)
    for _, basis in bases:
        for g in group.elements:
            x = module.act(g)
            got = basis.class_block(x)
            if basis.k == module.dim:
                # no relations: W is the identity and x comes back
                assert got is x
            coords = {i: got.row_dict(i) for i in got.rows}
            assert coords == fraction_class_coords(basis, x)


@pytest.mark.parametrize("surjective", [False, True], ids=["orbit", "quotient"])
@pytest.mark.parametrize("young", [(4,), (2, 2)], ids=["S4", "S2xS2"])
def test_operator_matrix_equals_the_entrywise_assembly(surjective, young):
    # the differential and the Dynkin operator on a module whose generators
    # have Fraction entries
    group = young_subgroup(young)
    module = fractional_module()
    if not group.is_symmetric():
        module = restrict(module, group)
    builder = OrbitComplexBuilder(module, group, surjective)
    built = []

    def checked(src_m, tgt_m, images):
        got = OrbitComplexBuilder.operator_matrix(builder, src_m, tgt_m, images)
        assert got == entrywise_operator_matrix(builder, src_m, tgt_m, images)
        built.append(got)
        return got

    builder.operator_matrix = checked
    for m in range(1, 5):
        builder.differential_matrix(m)
        orbit_slot_operator(builder, m, dynkin_terms(m))
    assert len(built) == 8
    assert has_fractions(built)


def test_a_builder_builds_each_generator_prefix_once(monkeypatch):
    real = CoinvariantBasis.__init__
    built = []

    def counted(self, module, stabilizer, parent=None):
        built.append((stabilizer, parent))
        real(self, module, stabilizer, parent)

    monkeypatch.setattr(CoinvariantBasis, "__init__", counted)
    for module, group in (
        (builtin("lie", 5), symmetric_group(5)),
        (restrict(builtin("lie", 4), young_subgroup((2, 2))), young_subgroup((2, 2))),
        (restrict(builtin("regular", 4), cyclic_group(4)), cyclic_group(4)),
    ):
        for surjective in (False, True):
            built.clear()
            builder = OrbitComplexBuilder(module, group, surjective)
            for m in range(1, group.degree + 2):
                builder.degree(m)
            groups = [stab for stab, _ in built]
            # one basis per prefix of each stabilizer's generators, each built
            # from its own prefix's basis
            assert len(groups) == len(set(groups)) == len(builder._coinv_cache)
            stabilizers = {o.stabilizer for m in builder._orbits for o in builder.orbits(m)}
            assert set(groups) == cubical.basis_groups(stabilizers) >= stabilizers
            for stab, parent in built:
                prefix = PermutationGroup(stab.degree, stab.generators[:-1])
                assert parent is (builder._coinv_cache[prefix] if stab.generators else None)


# -- the surjective-word quotient --------------------------------------------


def surjections(c: int, m: int) -> int:
    """Number of maps from a c-set onto an m-set, m! S(c, m)."""
    return sum((-1) ** j * comb(m, j) * (m - j) ** c for j in range(m + 1))


def test_identity_trace_counts_words_and_onto_words():
    # the merged count with the identity's terms is m^c and m! S(c, m),
    # for g with c cycles
    for total in range(9):
        for g_cycles in _partitions(total):
            c = len(g_cycles)
            for m in range(1, 8):
                terms, q = identity_trace(m)
                assert q == 1 and list(terms.values()) == [1]
                (t,) = terms
                assert fixed_words(t, g_cycles) == m ** c
                assert fixed_onto_words(t, g_cycles) == surjections(c, m)


def test_onto_counts_equal_the_subset_sum():
    # every one-length type d^k of at most 12 points, the types of the
    # identity and of D_m's class sums through m = 12, against every g of
    # at most 7 points
    types = [(d,) * k for d in range(1, 13) for k in range(1, 12 // d + 1)]
    assert {t for m in range(1, 13) for t in dynkin_trace(m)[0]} <= set(types)
    for t in types:
        for total in range(1, 8):
            for g in _partitions(total):
                assert fixed_words(t, g) == general_fixed_words(t, g)
                assert fixed_onto_words(t, g) == subset_fixed_onto_words(t, g)


def test_a_type_of_two_cycle_lengths_is_refused():
    for fixed in (fixed_words, fixed_onto_words):
        with pytest.raises(ValueError, match=r"the cycle type \(2, 1\) has more than one"):
            fixed((2, 1), (2,))


def test_the_onto_counts_cost_the_cycle_multiplicities(monkeypatch, capsys):
    # full(n) is the trivial module over the trivial group, one class, so
    # each degree is counted once over onto words (m <= n) and once over
    # words (m <= mmax + 1): one evaluation of each closed form per (class,
    # degree), where the subset sum made 1 + 2^m calls of fixed_words (8202
    # through n = 12)
    calls = Counter()
    for name in ("fixed_words", "fixed_onto_words"):
        real = getattr(cubical, name)
        monkeypatch.setattr(
            cubical, name, lambda t, g, real=real, name=name: calls.update([name]) or real(t, g)
        )
    # the sums per (group, degree) are shared by the process's count tables
    cubical._count_table.cache_clear()
    assert main(["betti", "--family", "full", "--n", "12", "--mode", "quotient"]) == 3
    # refused at its size, the onto counts summed, before a word is counted
    assert calls == {"fixed_onto_words": 12}
    assert "resource cap" in capsys.readouterr().err
    calls.clear()
    assert main(["betti", "--family", "full", "--n", "5", "--mode", "quotient"]) == 0
    assert calls == {"fixed_words": 8, "fixed_onto_words": 5}
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["betti", "--family", "full", "--n", "30", "--mode", "quotient"]) == 3
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_subset_complex_has_cohomology_k_in_degree_r(r):
    # I_r, the lemma behind H(C) = H(Q) in the cubical.py docstring: the
    # r-subsets of [m] as increasing words with distinct letters.  Every
    # coface keeps such a word increasing and injective (a KeyError below
    # would say otherwise), so they span a subcomplex of the word complex
    # on r positions.
    basis = {m: list(combinations(range(1, m + 1), r)) for m in range(1, 11)}
    diffs = {}
    for m in range(1, 10):
        index = {w: i for i, w in enumerate(basis[m + 1])}
        entries = (
            (j, index[t], -1 if i % 2 else 1)
            for j, w in enumerate(basis[m])
            for i in range(m + 2)
            for t in coface(i, w, m)
        )
        diffs[m] = RationalMatrix.from_entries(len(basis[m]), len(basis[m + 1]), entries)
    cx = CochainComplex(f"I_{r}", r, 9, {m: len(b) for m, b in basis.items()}, diffs)
    assert cx.check_d_squared()
    assert cx.betti_table().bettis() == tuple(int(m == r) for m in range(1, 10))


def test_kept_coface_terms_on_the_quotient_are_the_onto_ones():
    # differential_matrix on Q keeps every term of the inner cofaces but the
    # first and last; those must be exactly the terms onto [m+1]
    for n in range(1, 6):
        for m in range(1, n + 1):
            for w in surjective_words(n, m):
                for i in range(m + 2):
                    terms = coface(i, w, m)
                    onto = [t for t in terms if len(set(t)) == m + 1]
                    assert onto == (terms[1:-1] if 1 <= i <= m else [])


@settings(max_examples=40)
@given(modules_and_groups(), st.integers(2, 3))
def test_quotient_orbit_and_naive_tables_agree(case, m_max):
    module, group = case
    table = cubical_complex(module, group, m_max, mode="quotient").betti_table()
    assert table == cubical_complex(module, group, m_max).betti_table()
    # naive mode where its averaging projector stays small
    if module.dim * (m_max + 1) ** group.degree <= 700:
        naive = cubical_complex(module, group, m_max, mode="naive").betti_table()
        assert table == naive


QUOTIENT_CASES = {
    "lie5": lambda: (builtin("lie", 5), symmetric_group(5)),
    "regular5": lambda: (builtin("regular", 5), symmetric_group(5)),
    "sign<C4": lambda: (restrict(builtin("sign", 4), cyclic_group(4)), cyclic_group(4)),
    "regular4<C4": lambda: (restrict(builtin("regular", 4), cyclic_group(4)), cyclic_group(4)),
    "lie4<S2xS2": lambda: (
        restrict(builtin("lie", 4), young_subgroup((2, 2))),
        young_subgroup((2, 2)),
    ),
}


@pytest.mark.parametrize("case", list(QUOTIENT_CASES))
def test_quotient_tables_equal_orbit_tables(case):
    module, group = QUOTIENT_CASES[case]()
    n = group.degree
    for m_max in (2, n - 1, n + 2):
        table = cubical_complex(module, group, m_max, mode="quotient").betti_table()
        assert table == cubical_complex(module, group, m_max).betti_table()
    if case == "regular4<C4":
        assert table.bettis()[3] == 6


def test_full_family_through_the_quotient_matches_the_word_complex():
    # the word complex is the trivial module over the trivial group
    for n in range(1, 6):
        for m_max in (2, n + 2):
            trivial = builtin("trivial", n)
            table = cubical_complex(trivial, trivial_group(n), m_max, mode="quotient").betti_table()
            assert table.rows == full_complex(n, m_max).betti_table().rows


def _flip_one_quotient_sign(monkeypatch):
    real = OrbitComplexBuilder.differential_matrix

    def flipped(self, m):
        d = real(self, m)
        if self.surjective and m == 1:
            row = d.rows[min(d.rows)]
            j = min(row)
            row[j] = -row[j]
        return d

    monkeypatch.setattr(OrbitComplexBuilder, "differential_matrix", flipped)


def _shift_characters(shift):
    def patch(monkeypatch):
        real = modules.class_function
        monkeypatch.setattr(
            modules,
            "class_function",
            lambda module, group: {g: v + shift(g) for g, v in real(module, group).items()},
        )

    return patch


def _overstate_ranks(monkeypatch):
    real = cubical.rank
    monkeypatch.setattr(cubical, "rank", lambda a: real(a) + 1)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_flip_one_quotient_sign, "d\\^2 != 0"),
        # a constant shift adds the number of orbits to each count: the full
        # dimensions stay integers, and Q's count stops matching Q
        (_shift_characters(lambda g: 1), "the quotient has dimension"),
        (_shift_characters(lambda g: int(g == identity_permutation(g.degree))), "not a dimension"),
        (_overstate_ranks, "the rank of d at degree"),
    ],
    ids=["d-squared", "quotient-count", "integer-dims", "rank-bounds"],
)
def test_broken_quotient_checks_raise_and_exit_4(mutate, message, monkeypatch, capsys):
    mutate(monkeypatch)
    with pytest.raises(InvariantError, match=message):
        cubical_complex(builtin("regular", 3), symmetric_group(3), 5, mode="quotient").betti_table()
    assert main(["betti", "--family", "ass", "--n", "3"]) == 4
    assert capsys.readouterr().err.startswith("internal error:")


@pytest.mark.parametrize("family", ["ass", "harrison"])
def test_a_mutated_trace_count_makes_orbit_mode_exit_4(family, monkeypatch, capsys):
    # a constant shift adds the number of orbits to each full count, which
    # orbit mode then builds a different dimension from
    _shift_characters(lambda g: 1)(monkeypatch)
    if family == "ass":
        with pytest.raises(InvariantError, match="the complex has dimension"):
            cubical_complex(builtin("regular", 3), symmetric_group(3), 5)
    assert main(["betti", "--family", family, "--n", "3", "--mode", "orbit"]) == 4
    assert "the complex has dimension" in capsys.readouterr().err
