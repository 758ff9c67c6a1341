"""Eulerian idempotents, Dynkin elements and Harrison subcomplexes.

Oracle values: degree-2 and degree-3 coefficients are expanded by hand from
sign(s) (-1)^{des s} / (m binom(m-1, des s)) and from the subsets S of
{2..m}; everything else is pinned by the idempotent, commutation and
E D = D, D E = m E, D D = m D identities plus frozen dimension runs.
"""

from fractions import Fraction

import pytest
from conftest import entrywise_eulerian_matrix, modules_and_groups
from hypothesis import given, settings
from hypothesis import strategies as st

import cubix.cubical as cubical
from cubix.cubical import (
    DimensionCapExceeded,
    OrbitComplexBuilder,
    QuotientComplex,
    differential,
    words,
)
import cubix.harrison as harrison
from cubix.cli import main
from cubix.harrison import (
    HarrisonRestrictionError,
    _dynkin_images,
    check_idempotent,
    dynkin_terms,
    dynkin_trace,
    eulerian_scale,
    eulerian_terms,
    harrison_complex,
    orbit_eulerian_matrix,
    orbit_slot_operator,
    slot_action,
    word_eulerian_matrix,
)
from cubix.linalg import (
    InvariantError,
    RationalMatrix,
    RowSpanSolver,
    SubspaceEscape,
    echelon_basis,
    image_basis,
)
from cubix.modules import (
    BUILTIN_KINDS,
    ModuleSpec,
    builtin,
    induce,
    random_basis_change,
    trivial_subgroup_module,
)
from cubix.perm import (
    Permutation,
    cyclic_group,
    symmetric_group,
    trivial_group,
    young_subgroup,
)


def test_eulerian_scales():
    assert [eulerian_scale(m) for m in (1, 2, 3, 4)] == [1, 2, 6, 12]


def test_eulerian_coefficients_degree_2():
    terms = {s.images: c for s, c in eulerian_terms(2)}
    assert terms == {(1, 2): 1, (2, 1): 1}


def test_eulerian_coefficients_degree_3():
    # by hand: c_id = 1/3, one-descent terms are +-1/6 by sign, c_321 = -1/3
    terms = {s.images: c for s, c in eulerian_terms(3)}
    assert terms == {
        (1, 2, 3): 2,
        (1, 3, 2): 1,
        (2, 1, 3): 1,
        (2, 3, 1): -1,
        (3, 1, 2): -1,
        (3, 2, 1): -2,
    }


def test_slot_action_commutes_with_position_action():
    from cubix.cubical import position_action

    t = Permutation((2, 3, 1))
    g = Permutation((3, 1, 2, 4))
    w = (1, 3, 2, 2)
    assert slot_action(t, position_action(g, w)) == position_action(
        g, slot_action(t, w)
    )


def test_word_eulerian_single_position_values():
    # numerators over the den: E_2 = (1/2)(1 + slot(s_1)), and 6 E_3 has
    # the rows 3 (e1 - e3), 0, 3 (e3 - e1), which reduce to den 2
    half = Fraction(1, 2)
    e2 = word_eulerian_matrix(1, 2)
    assert (eulerian_scale(2), e2.den) == (2, 2)
    assert e2.to_rows() == [[half, half], [half, half]]
    # rows by hand: E(e1) = (e1 - e3)/2, E(e2) = 0, E(e3) = (e3 - e1)/2
    e3 = word_eulerian_matrix(1, 3)
    assert (eulerian_scale(3), e3.den) == (6, 2)
    assert e3.rows == {0: {0: 1, 2: -1}, 2: {0: -1, 2: 1}}
    assert e3.to_rows() == [[half, 0, -half], [0, 0, 0], [-half, 0, half]]


def test_word_eulerian_matches_its_entrywise_oracle():
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4, 5):
            assert word_eulerian_matrix(n, m) == entrywise_eulerian_matrix(n, m)


def test_word_eulerian_is_idempotent_and_commutes():
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4):
            e = word_eulerian_matrix(n, m)
            assert check_idempotent(e)
            e2 = word_eulerian_matrix(n, m + 1)
            d = differential(n, m)
            assert e * d == d * e2


def test_orbit_eulerian_is_idempotent_on_coinvariants():
    builder = OrbitComplexBuilder(builtin("regular", 3), symmetric_group(3))
    for m in (1, 2, 3, 4):
        assert check_idempotent(orbit_eulerian_matrix(builder, m))


def test_orbit_operators_over_trivial_group_are_word_operators():
    # every word is its own orbit with a one-dimensional coinvariant block,
    # so both orbit-mode operators must equal the word-level matrices
    for n in (1, 2, 3):
        group = trivial_group(n)
        builder = OrbitComplexBuilder(trivial_subgroup_module(group), group)
        for m in (1, 2, 3, 4):
            assert builder.differential_matrix(m) == differential(n, m)
            assert orbit_eulerian_matrix(builder, m) == word_eulerian_matrix(n, m)


@pytest.mark.parametrize(
    "group, dims",
    [
        (cyclic_group(3), [1, 2, 3, 6, 9, 12]),
        (young_subgroup((2, 2)), [1, 5, 12, 24, 45, 75]),
    ],
)
def test_harrison_over_subgroup_matches_induced_module(group, dims):
    module = trivial_subgroup_module(group)
    sub = harrison_complex(module, group, 5)
    ind = harrison_complex(induce(module), symmetric_group(group.degree), 5)
    assert [sub.dims[m] for m in range(1, 7)] == dims
    assert [ind.dims[m] for m in range(1, 7)] == dims
    assert [sub.rank_d(m) for m in range(1, 6)] == [
        ind.rank_d(m) for m in range(1, 6)
    ]


def test_harrison_single_position_gives_module_dimension():
    group = symmetric_group(1)
    trivial = builtin("trivial", 1)
    assert harrison_complex(trivial, group, 3).betti_table().bettis() == (1, 0, 0)
    wide = ModuleSpec("wide", 1, 3, ["a", "b", "c"], ())
    assert harrison_complex(wide, group, 3).betti_table().bettis() == (3, 0, 0)
    moved = random_basis_change(wide, seed=11)
    assert harrison_complex(moved, group, 3).betti_table().bettis() == (3, 0, 0)


def test_harrison_vanishes_for_small_builtin_modules():
    for kind in ("trivial", "regular", "lie"):
        for n in (2, 3):
            hc = harrison_complex(builtin(kind, n), symmetric_group(n), n + 2)
            assert hc.check_d_squared()
            assert hc.betti_table().bettis() == (0,) * (n + 2)


def test_harrison_dimension_runs():
    hc = harrison_complex(builtin("regular", 3), symmetric_group(3), 4)
    assert [hc.dims[m] for m in range(1, 6)] == [1, 4, 9, 16, 25]
    hc = harrison_complex(builtin("lie", 3), symmetric_group(3), 4)
    assert [hc.dims[m] for m in range(1, 6)] == [0, 1, 3, 5, 8]
    hc = harrison_complex(builtin("trivial", 3), symmetric_group(3), 4)
    assert [hc.dims[m] for m in range(1, 6)] == [1, 2, 3, 5, 7]


def word_slot_matrix(t: Permutation, n: int, m: int) -> RationalMatrix:
    ws = words(n, m)
    index = {w: i for i, w in enumerate(ws)}
    entries = ((index[slot_action(t, w)], index[w], 1) for w in ws)
    return RationalMatrix.from_entries(len(ws), len(ws), entries)


def test_word_slot_matrix_is_a_permutation_action():
    t = Permutation((2, 1, 3))
    u = Permutation((1, 3, 2))
    a = word_slot_matrix(t, 2, 3)
    b = word_slot_matrix(u, 2, 3)
    assert a * b == word_slot_matrix(t * u, 2, 3)


def test_dynkin_coefficients_degree_3():
    # by hand, S = {}, {2}, {3}, {2,3}: p_S = 123, 213, 312, 321
    terms = {t.images: c for t, c in dynkin_terms(3)}
    assert terms == {(1, 2, 3): 1, (2, 1, 3): 1, (2, 3, 1): -1, (3, 2, 1): -1}


def _times(a: dict, b: dict) -> dict:
    """Product in Q[S_m] of {Permutation: coefficient} dicts."""
    out = {}
    for p, x in a.items():
        for q, y in b.items():
            out[p * q] = out.get(p * q, 0) + x * y
    return {p: v for p, v in out.items() if v}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_dynkin_is_a_lie_idempotent_up_to_m(m):
    dyn = dict(dynkin_terms(m))
    assert len(dyn) == 2 ** (m - 1)
    assert set(dyn.values()) <= {1, -1}
    scale = eulerian_scale(m)
    eul = {s.inverse(): Fraction(c, scale) for s, c in eulerian_terms(m)}
    assert _times(eul, dyn) == dyn
    assert _times(dyn, eul) == {p: m * v for p, v in eul.items()}
    assert _times(dyn, dyn) == {p: m * v for p, v in dyn.items()}


@pytest.mark.parametrize(
    "module, group",
    [
        (builtin("regular", 3), symmetric_group(3)),
        (builtin("lie", 4), symmetric_group(4)),
        (trivial_subgroup_module(cyclic_group(3)), cyclic_group(3)),
        (random_basis_change(builtin("lie_cyclic", 3), seed=5), symmetric_group(4)),
    ],
    ids=["regular3", "lie4", "c3-in-s3", "lie_cyclic3-moved"],
)
def test_orbit_dynkin_and_eulerian_have_one_image(module, group):
    builder = OrbitComplexBuilder(module, group)
    for m in (1, 2, 3, 4):
        dim = builder.degree(m).dim
        dyn = image_basis(orbit_slot_operator(builder, m, dynkin_terms(m)))
        eul = image_basis(orbit_eulerian_matrix(builder, m))
        assert len(dyn) == len(eul)
        # raises SubspaceEscape unless every Eulerian image row lies in im D
        RowSpanSolver(echelon_basis(dyn, dim), dim).solve(
            RationalMatrix.from_row_dicts(eul, len(eul), dim)
        )


@pytest.mark.parametrize("mode", ["quotient", "orbit"])
def test_a_second_module_reads_the_located_dynkin_terms(mode, monkeypatch):
    # D_m's terms over S_3 depend on no module: regular(3) has coinvariants
    # at every orbit, so it locates them all, and lie(3) after it none
    calls = []
    real = harrison.slot_action
    monkeypatch.setattr(harrison, "slot_action", lambda t, w: calls.append(t) or real(t, w))
    cubical._young_located.cache_clear()
    sym = symmetric_group(3)
    harrison_complex(builtin("regular", 3), sym, 4, mode)
    assert calls
    calls.clear()
    shared = harrison_complex(builtin("lie", 3), sym, 4, mode).betti_table()
    assert not calls
    cubical._young_located.cache_clear()
    assert harrison_complex(builtin("lie", 3), sym, 4, mode).betti_table() == shared
    assert calls


@pytest.mark.parametrize(
    "m, index, error",
    [(3, -1, HarrisonRestrictionError), (2, 1, SubspaceEscape)],
    ids=["d-squared", "membership"],
)
def test_a_flipped_dynkin_sign_is_an_invariant_error(
    m, index, error, monkeypatch, capsys
):
    # flipping the last degree-3 sign breaks D^2 = 3 D; flipping the degree-2
    # transposition gives 1 - (12), whose square is 2 (1 - (12)) but whose
    # image d does not preserve, so only the membership check catches it
    def flipped(k):
        terms = list(dynkin_terms(k))
        if k == m:
            t, c = terms[index]
            terms[index] = (t, -c)
        return tuple(terms)

    monkeypatch.setattr(harrison, "dynkin_terms", flipped)
    with pytest.raises(error):
        _dynkin_images(OrbitComplexBuilder(builtin("regular", 3), symmetric_group(3)), 4)
    # the trace is in closed form and reads no term, so in either mode the
    # built degrees' checks are the ones that catch the flip
    for mode in ("quotient", "orbit"):
        with pytest.raises(error):
            harrison_complex(builtin("regular", 3), symmetric_group(3), 5, mode=mode)
        assert main(["betti", "--family", "harrison", "--n", "3", "--mode", mode]) == 4
        assert capsys.readouterr().err.startswith("internal error:")


# -- the surjective-word quotient ----------------------------------------------

HARRISON_CASES = {
    "regular3": lambda: (builtin("regular", 3), symmetric_group(3)),
    "regular4": lambda: (builtin("regular", 4), symmetric_group(4)),
    "regular5": lambda: (builtin("regular", 5), symmetric_group(5)),
    "lie4": lambda: (builtin("lie", 4), symmetric_group(4)),
    "lie5": lambda: (builtin("lie", 5), symmetric_group(5)),
    "tr_cyclic4": lambda: (builtin("tr_cyclic", 4), symmetric_group(4)),
    "sign4": lambda: (builtin("sign", 4), symmetric_group(4)),
    "trivial3": lambda: (builtin("trivial", 3), symmetric_group(3)),
    "lie_cyclic3-moved": lambda: (
        random_basis_change(builtin("lie_cyclic", 3), 3),
        symmetric_group(4),
    ),
    "trivial<C3": lambda: (trivial_subgroup_module(cyclic_group(3)), cyclic_group(3)),
    "trivial<C4": lambda: (trivial_subgroup_module(cyclic_group(4)), cyclic_group(4)),
    "trivial<S2xS2": lambda: (
        trivial_subgroup_module(young_subgroup((2, 2))),
        young_subgroup((2, 2)),
    ),
    # one slot: Harrison cohomology is the module itself, at m = 1
    "wide1-moved": lambda: (
        random_basis_change(ModuleSpec("wide", 1, 3, ["a", "b", "c"], ()), 11),
        symmetric_group(1),
    ),
}


@pytest.mark.parametrize("case", list(HARRISON_CASES))
def test_harrison_quotient_tables_equal_orbit_tables(case):
    module, group = HARRISON_CASES[case]()
    n = group.degree
    # m_max = n - 1 builds Q in every degree it has; m_max = 2 stops short
    for m_max in sorted({2, max(n - 1, 2)}):
        quotient = harrison_complex(module, group, m_max, mode="quotient")
        orbit = harrison_complex(module, group, m_max)
        assert isinstance(quotient, QuotientComplex)
        assert quotient.dims == orbit.dims
        assert quotient.betti_table() == orbit.betti_table()
        isotypic = harrison_complex(module, group, m_max, mode="isotypic")
        assert isotypic.dims == orbit.dims
        assert isotypic.betti_table() == orbit.betti_table()
    if case == "wide1-moved":
        assert quotient.betti_table().bettis() == (3, 0)


@pytest.mark.parametrize(
    "kind, n, dims",
    [
        ("regular", 4, [m ** 3 for m in range(1, 7)]),
        ("regular", 5, [m ** 4 for m in range(1, 7)]),
        ("lie", 5, [0, 3, 16, 51, 125, 259]),
    ],
)
def test_trace_dimensions_are_the_built_dimensions(kind, n, dims):
    # each run is what the orbit route builds through m_max = 5
    quotient = harrison_complex(builtin(kind, n), symmetric_group(n), 5, mode="quotient")
    assert [quotient.dims[m] for m in range(1, 7)] == dims


@settings(max_examples=30)
@given(modules_and_groups(), st.integers(2, 3))
def test_harrison_quotient_and_orbit_tables_agree(case, m_max):
    module, group = case
    quotient = harrison_complex(module, group, m_max, mode="quotient")
    orbit = harrison_complex(module, group, m_max)
    assert quotient.dims == orbit.dims
    assert quotient.betti_table() == orbit.betti_table()


def _flip_one_sign_on_q(monkeypatch):
    real = harrison.orbit_slot_operator

    def flipped(builder, m, terms):
        terms = list(terms)
        if builder.surjective and m == 3:
            t, c = terms[-1]
            terms[-1] = (t, -c)
        return real(builder, m, terms)

    monkeypatch.setattr(harrison, "orbit_slot_operator", flipped)


def _shift_the_identity_term(monkeypatch):
    # tr(slot(1)) grows by sum_g chi(g) / |G| = dim M_G = 1 for regular(3),
    # so tr(D_2) / 2 is no longer an integer
    real = cubical.fixed_words
    monkeypatch.setattr(
        cubical, "fixed_words", lambda t, g: real(t, g) + (max(t) == 1)
    )


def _double_the_onto_count(monkeypatch):
    real = cubical.fixed_onto_words
    monkeypatch.setattr(cubical, "fixed_onto_words", lambda t, g: 2 * real(t, g))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_flip_one_sign_on_q, "D\\^2 != 3 D at degree 3"),
        (_shift_the_identity_term, "the trace count of degree 2 is .*not a dimension"),
        (_double_the_onto_count, "the quotient has dimension"),
    ],
    ids=["flipped-sign-on-q", "trace-term", "onto-count"],
)
def test_broken_harrison_quotient_checks_raise_and_exit_4(
    mutate, message, monkeypatch, capsys
):
    mutate(monkeypatch)
    with pytest.raises(InvariantError, match=message):
        harrison_complex(builtin("regular", 3), symmetric_group(3), 5, mode="quotient")
    assert main(["betti", "--family", "harrison", "--n", "3"]) == 4
    assert capsys.readouterr().err.startswith("internal error:")


# -- Harrison through the irreducibles ------------------------------------------


@pytest.mark.parametrize("kind", BUILTIN_KINDS)
def test_harrison_through_the_irreducibles_equals_the_quotient_route(kind):
    # lie_cyclic(n) has n + 1 slots
    for n in range(1, 6 if kind == "lie_cyclic" else 7):
        module = builtin(kind, n)
        group = symmetric_group(module.N)
        quotient = harrison_complex(module, group, module.N + 2, "quotient")
        isotypic = harrison_complex(module, group, module.N + 2, "isotypic")
        assert isinstance(isotypic, QuotientComplex)
        assert isotypic.dims == quotient.dims, n
        assert isotypic.betti_table() == quotient.betti_table(), n


def test_an_irreducible_whose_dynkin_dimension_is_off_exits_4(monkeypatch, capsys):
    # regular(3) holds V(2,1) twice; one more dimension of its im D in
    # degree 2 puts the sum 2 above the 4 of the Dynkin trace count
    real = cubical.operator_complex

    def off(module, *args):
        part = real(module, *args)
        if module.name == "V(2,1)":
            part.dims[2] += 1
        return part

    monkeypatch.setattr(cubical, "operator_complex", off)
    assert main(["betti", "--family", "harrison", "--n", "3"]) == 4
    assert capsys.readouterr().err == (
        "internal error: harrison(regular(3)/S3): its irreducibles sum to dimension 6 "
        "in degree 2, its trace count is 4\n"
    )


# -- the closed forms the counts read where no matrix is built -----------------


@pytest.mark.parametrize("m", range(1, 13))
def test_the_closed_form_dynkin_trace_sums_the_enumerated_terms(m):
    by_type = {}
    for t, c in dynkin_terms(m):
        by_type[t.cycle_type()] = by_type.get(t.cycle_type(), 0) + c
    assert dynkin_trace(m) == ({key: c for key, c in by_type.items() if c}, m)


@pytest.mark.parametrize("m", [7, 8, 9])
def test_dynkin_squares_to_m_times_itself_in_the_group_algebra(m):
    # the identity that makes tr(D_m)/m a dimension in the degrees that
    # quotient mode never builds, and so never checks at run time; m <= 6
    # is in test_dynkin_is_a_lie_idempotent_up_to_m
    dyn = dict(dynkin_terms(m))
    assert _times(dyn, dyn) == {p: m * c for p, c in dyn.items()}


@pytest.mark.parametrize("n, m_top", [(2, 9), (3, 6)])
def test_deep_harrison_quotient_tables_equal_orbit_tables(n, m_top):
    # the orbit table through m_top holds every shorter one as a prefix
    module, group = builtin("regular", n), symmetric_group(n)
    orbit = harrison_complex(module, group, m_top).betti_table()
    for m_max in range(2, m_top + 1):
        quotient = harrison_complex(module, group, m_max, mode="quotient").betti_table()
        assert quotient.rows == orbit.rows[:m_max]


def test_orbit_mode_at_mmax_10_prints_the_quotient_table(capsys):
    # orbit mode builds every degree through m_max + 1 = 11; the size count
    # of two slots is small and the Dynkin terms applied count 114 687, so
    # the default cap admits both
    argv = ["betti", "--family", "harrison", "--n", "2", "--mmax", "10"]
    assert main(argv) == 0
    quotient = capsys.readouterr().out
    assert main(argv + ["--mode", "orbit"]) == 0
    assert capsys.readouterr().out == quotient


def test_the_dynkin_terms_are_counted_against_the_cap(monkeypatch, capsys):
    built = []
    real = harrison.dynkin_terms
    monkeypatch.setattr(harrison, "dynkin_terms", lambda m: (built.append(m), real(m))[1])
    # orbit mode on 2 slots at m_max 30 counts about 500 dimensions, but D_31
    # alone has 2^30 terms: refused before the first term is built
    argv = ["betti", "--family", "harrison", "--n", "2", "--mmax", "30", "--mode", "orbit"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "resource cap: the Dynkin terms applied for harrison(regular(2)/S2) is "
    )
    assert built == []
    # S2 has (m^2 + m)/2 orbits on the words of degree m, each taking D_m's
    # 2^(m-1) terms: a cap at their sum admits m_max 3, one below refuses it
    module, group = builtin("regular", 2), symmetric_group(2)
    applied = sum(2 ** (m - 1) * (m * m + m) // 2 for m in range(1, 5))
    assert applied == 111
    with pytest.raises(DimensionCapExceeded, match=" is 111, above the cap 110"):
        harrison_complex(module, group, 3, "orbit", cap=110)
    assert built == []
    assert harrison_complex(module, group, 3, "orbit", cap=111).betti_table().bettis() == (0,) * 3
    assert built == [1, 2, 3, 4]


def test_a_deep_harrison_run_answers_under_the_default_cap(capsys):
    assert main(["betti", "--family", "harrison", "--n", "2", "--mmax", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 32 and lines[-1] == "cohomology: 0"
    assert lines[30].split() == ["30", "30", "15", "0"]
