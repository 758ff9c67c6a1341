"""Direct complexes and their face-off with the generic engine.

Oracle values: necklace sets and small differentials are expanded by hand;
dimension formulas (word count, Witt, necklace) pin the degree sizes; the
engine comparisons are the two-route check and must agree exactly.
"""

import pytest

from cubix.cubical import differential, full_complex
from cubix.freelie import witt_dim
from cubix.realizations import (
    RealizationReport,
    SubspaceEscape,
    _degree_basis,
    compare_with_engine,
    direct_complex,
    necklace_count,
    necklace_representatives,
    rotation_class,
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


def test_ass_family_is_the_word_complex():
    for n in (1, 2, 3, 4):
        direct, full = direct_complex("ass", n, 6), full_complex(n, 6)
        assert direct.dims == full.dims == {m: m ** n for m in range(1, 8)}
        assert direct.diffs == full.diffs
        assert all(direct.diffs[m] == differential(n, m) for m in range(1, 7))


def test_lie_dimensions_follow_witt():
    dc = direct_complex("lie", 2, 3)
    assert [dc.dims[m] for m in range(1, 5)] == [0, 1, 3, 6]
    assert _degree_basis("lie", 2, 2)[0] == ((1, 2),)
    for m in range(1, 5):
        assert dc.dims[m] == witt_dim(m, 2)


def test_tr_differential_hand_value():
    # d(11) = (22) - [(11)+(12)+(21)+(22)] + (11) folds to -2 . class(12)
    d = substitution_differential("tr", 2, 1)
    assert d.to_rows() == [[0], [-2], [0]]


def test_direct_complexes_square_to_zero():
    for family in ("ass", "lie", "tr"):
        for n in (1, 2, 3):
            assert direct_complex(family, n, 4).check_d_squared()


def test_direct_complex_rejects_unknown_family():
    with pytest.raises(ValueError):
        direct_complex("sder", 2, 3)


def test_engine_agreement_small_windows():
    # the published degrees: lie n=2 -> b2, ass n=3 -> b3, tr n=3 -> b3
    rep = compare_with_engine("lie", 2, 4)
    assert rep.ok and rep.direct_betti == (0, 1, 0, 0)
    rep = compare_with_engine("ass", 3, 4)
    assert rep.ok and rep.direct_betti == (0, 0, 1, 0)
    rep = compare_with_engine("tr", 3, 4)
    assert rep.ok and rep.direct_betti == (0, 0, 1, 0)


def test_engine_agreement_covers_dimensions():
    rep = compare_with_engine("tr", 2, 4)
    assert rep.direct_dims == (1, 3, 6, 10, 15)
    assert rep.engine_dims == rep.direct_dims


def test_report_flags_mismatch():
    rep = RealizationReport("lie", 2, (0, 1), (0, 1), (1,), (0,))
    assert not rep.ok
    rep = RealizationReport("lie", 2, (0, 1), (0, 2), (1,), (1,))
    assert not rep.ok
