"""Eulerian idempotents, Dynkin elements and Harrison subcomplexes.

Oracle values: degree-2 and degree-3 coefficients are expanded by hand from
sign(s) (-1)^{des s} / (m binom(m-1, des s)) and from the subsets S of
{2..m}; everything else is pinned by the idempotent, commutation and
E D = D, D E = m E, D D = m D identities plus frozen dimension runs.
"""

from fractions import Fraction

import pytest

from cubix.cubical import OrbitComplexBuilder, differential, words
import cubix.harrison as harrison
from cubix.cli import main
from cubix.harrison import (
    HarrisonRestrictionError,
    check_idempotent,
    dynkin_terms,
    eulerian_scale,
    eulerian_terms,
    harrison_betti,
    harrison_complex,
    orbit_eulerian_matrix,
    orbit_slot_operator,
    slot_action,
    word_eulerian_matrix,
)
from cubix.linalg import RationalMatrix, RowSpanSolver, SubspaceEscape, image_basis
from cubix.modules import (
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
    e2, s2 = word_eulerian_matrix(1, 2)
    assert s2 == 2
    assert e2.to_rows() == [[1, 1], [1, 1]]
    # columns by hand: E(e1) = (e1 - e3)/2, E(e2) = 0, E(e3) = (e3 - e1)/2
    e3, s3 = word_eulerian_matrix(1, 3)
    assert s3 == 6
    assert e3.to_rows() == [[3, 0, -3], [0, 0, 0], [-3, 0, 3]]


def test_word_eulerian_is_idempotent_and_commutes():
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4):
            e, s = word_eulerian_matrix(n, m)
            assert check_idempotent(e, s)
            e2, s2 = word_eulerian_matrix(n, m + 1)
            d = differential(n, m)
            assert (d * e).scale(s2) == (e2 * d).scale(s)


def test_orbit_eulerian_is_idempotent_on_coinvariants():
    builder = OrbitComplexBuilder(builtin("regular", 3), symmetric_group(3))
    for m in (1, 2, 3, 4):
        e, s = orbit_eulerian_matrix(builder, m)
        assert check_idempotent(e, s)


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
    assert harrison_betti(builtin("trivial", 1), group, 3).bettis() == (1, 0, 0)
    wide = ModuleSpec("wide", 1, 3, ["a", "b", "c"], ())
    assert harrison_betti(wide, group, 3).bettis() == (3, 0, 0)
    moved = random_basis_change(wide, seed=11)
    assert harrison_betti(moved, group, 3).bettis() == (3, 0, 0)


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
        eul = image_basis(orbit_eulerian_matrix(builder, m)[0])
        assert len(dyn) == len(eul)
        # raises SubspaceEscape unless every Eulerian image row lies in im D
        RowSpanSolver(dyn, dim).solve(RationalMatrix.from_row_dicts(eul, len(eul), dim))


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
        harrison_complex(builtin("regular", 3), symmetric_group(3), 3)
    assert main(["betti", "--family", "harrison", "--n", "3"]) == 4
    assert capsys.readouterr().err.startswith("internal error:")
