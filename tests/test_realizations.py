"""Direct complexes and their face-off with the generic engine.

Oracle values: necklace sets and small differentials are expanded by hand;
dimension formulas (word count, Witt, necklace) pin the degree sizes; the
engine comparisons, here and in ``suites.chk_realization``, are the
two-route check and must agree exactly.
"""

import pytest
from conftest import (
    clear_realization_caches,
    product_lie_differential,
    rotation_class,
    rotation_class_necklaces,
    rotation_class_tr_differential,
)

import cubix.freelie as freelie
import cubix.realizations as realizations
import cubix.suites as suites
from cubix.cubical import CochainComplex, cubical_complex, differential, full_complex
from cubix.freelie import witt_dim
from cubix.linalg import InvariantError, RationalMatrix, SubspaceEscape
from cubix.modules import FAMILY_KINDS, builtin
from cubix.perm import symmetric_group
from cubix.realizations import (
    _degree_basis,
    direct_complex,
    necklace_count,
    necklace_representatives,
    substitution_differential,
)


def test_rotation_class_is_least_rotation():
    assert rotation_class((2, 1, 1)) == (1, 1, 2)
    assert rotation_class((1, 2, 1, 2)) == (1, 2, 1, 2)
    assert rotation_class((3, 1, 2)) == (1, 2, 3)


def test_necklace_representatives_small():
    assert necklace_representatives(2, 3) == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 2),
        (2, 2, 2),
    ]
    assert necklace_count(3, 3) == 11
    assert necklace_count(2, 4) == 6


@pytest.mark.parametrize("m", range(1, 7))
def test_necklaces_match_the_rotation_classes(m):
    for n in range(1, 6):
        assert necklace_representatives(m, n) == rotation_class_necklaces(m, n)


@pytest.mark.parametrize("n", range(1, 5))
def test_tr_differential_matches_the_rotation_class_oracle(n):
    for m in range(1, 6):
        assert substitution_differential("tr", n, m) == rotation_class_tr_differential(n, m)


def test_an_indivisible_necklace_sum_is_an_invariant_error(monkeypatch):
    # with phi(d) = d, the sum for m=2, n=3 is 2^3 + 3 * 2 = 14
    clear_realization_caches()
    monkeypatch.setattr(realizations, "totient", lambda d: d)
    message = r"^necklace count m=2 n=3: 14 is not divisible by 3$"
    with pytest.raises(InvariantError, match=message):
        necklace_count(2, 3)


def test_a_wrong_necklace_count_is_an_invariant_error(monkeypatch):
    clear_realization_caches()
    monkeypatch.setattr(realizations, "necklace_count", lambda m, n: 5)
    message = r"^necklaces m=2 n=3: 4 classes, expected 5$"
    with pytest.raises(InvariantError, match=message):
        necklace_representatives(2, 3)


def test_a_wrong_witt_dimension_is_an_invariant_error(monkeypatch):
    # lie_projector_basis counts each degree of the direct Lie complex
    clear_realization_caches()
    monkeypatch.setattr(freelie, "witt_dim", lambda m, n: 7)
    with pytest.raises(InvariantError, match=r"^Lyndon basis m=1 n=2: 0 words, expected 7$"):
        direct_complex("lie", 2, 3)


def test_ass_family_is_the_word_complex():
    for n in (1, 2, 3, 4):
        direct, full = direct_complex("ass", n, 6), full_complex(n, 6)
        assert direct.dims == full.dims == {m: m ** n for m in range(1, 8)}
        assert direct.diffs == full.diffs
        assert all(direct.diffs[m] == differential(n, m) for m in range(1, 7))


def test_lie_dimensions_follow_witt():
    dc = direct_complex("lie", 2, 3)
    assert [dc.dims[m] for m in range(1, 5)] == [0, 1, 3, 6]
    # the one Lyndon word 12 expands to [1, 2] = 12 - 21, word indices 1 and 2
    assert _degree_basis("lie", 2, 2) == ({1: 1, 2: -1},)
    for m in range(1, 5):
        assert dc.dims[m] == witt_dim(m, 2)


@pytest.mark.parametrize("n", range(1, 5))
def test_lie_differential_matches_the_product_oracle(n):
    for m in range(1, 6):
        assert substitution_differential("lie", n, m) == product_lie_differential(n, m)


def test_tr_differential_hand_value():
    # d(11) = (22) - [(11)+(12)+(21)+(22)] + (11) folds to -2 . class(12)
    d = substitution_differential("tr", 2, 1)
    assert d.to_rows() == [[0, -2, 0]]


def test_direct_complexes_square_to_zero():
    for family in ("ass", "lie", "tr"):
        for n in (1, 2, 3):
            assert direct_complex(family, n, 4).check_d_squared()


def test_direct_complex_rejects_unknown_family():
    with pytest.raises(ValueError):
        direct_complex("sder", 2, 3)


def test_the_lie_restriction_raises_when_a_vector_escapes(monkeypatch):
    # send word 12 to word 11, which lies outside the Lie subspace at m=3
    clear_realization_caches()
    monkeypatch.setattr(realizations, "differential_columns", lambda n, m: ({}, {0: 1}, {}, {}))
    with pytest.raises(SubspaceEscape, match=r"^a vector escapes the Lie subspace at n=2, m=3$"):
        substitution_differential("lie", 2, 2)


def _engine(family, n, m_max):
    module = builtin(FAMILY_KINDS[family], n)
    return cubical_complex(module, symmetric_group(n), m_max, mode="quotient")


def _dims(cx):
    return tuple(cx.dims[m] for m in range(1, cx.m_max + 2))


def test_engine_agreement_small_windows():
    # the published degrees: lie n=2 -> b2, ass n=3 -> b3, tr n=3 -> b3
    for family, n, bettis in (
        ("lie", 2, (0, 1, 0, 0)),
        ("ass", 3, (0, 0, 1, 0)),
        ("tr", 3, (0, 0, 1, 0)),
    ):
        direct, engine = direct_complex(family, n, 4), _engine(family, n, 4)
        assert _dims(direct) == _dims(engine)
        assert direct.betti_table().bettis() == engine.betti_table().bettis() == bettis


def test_engine_agreement_covers_dimensions():
    assert _dims(direct_complex("tr", 2, 4)) == _dims(_engine("tr", 2, 4)) == (1, 3, 6, 10, 15)
    side = "dims=(1, 3, 6, 10, 15, 21, 28) betti=(0, 0, 0, 0, 0, 0)"
    assert suites.chk_realization("tr", 2) == (True, f"tr n=2: direct {side} vs engine {side}")


def test_realization_check_names_both_sides_on_a_mismatch(monkeypatch):
    # the word complex in place of the Lie one: the dims differ, the Betti numbers agree
    monkeypatch.setattr(suites, "direct_complex", lambda family, n, m_max: full_complex(n, m_max))
    assert suites.chk_realization("lie", 2) == (
        False,
        "lie n=2: direct dims=(1, 4, 9, 16, 25, 36, 49) betti=(0, 1, 0, 0, 0, 0) "
        "vs engine dims=(0, 1, 3, 6, 10, 15, 21) betti=(0, 1, 0, 0, 0, 0)",
    )

    # the Lie complex with zero differentials: the dims agree, the Betti numbers differ
    def zero_differentials(family, n, m_max):
        dims = direct_complex(family, n, m_max).dims
        zeros = {m: RationalMatrix.zeros(dims[m], dims[m + 1]) for m in range(1, m_max + 1)}
        return CochainComplex("zero", n, m_max, dims, zeros)

    monkeypatch.setattr(suites, "direct_complex", zero_differentials)
    assert suites.chk_realization("lie", 2) == (
        False,
        "lie n=2: direct dims=(0, 1, 3, 6, 10, 15, 21) betti=(0, 1, 3, 6, 10, 15) "
        "vs engine dims=(0, 1, 3, 6, 10, 15, 21) betti=(0, 1, 0, 0, 0, 0)",
    )
