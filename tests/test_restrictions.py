"""Restricted matrices against frozen values.

Each case restricts a linear map to a fixed basis of an invariant subspace:
the Harrison differential, the naive-mode differential, the Lyndon-basis
differential of the direct free-Lie complex, the cyclic action on the Lie
bracket basis, and an orbit complex whose coinvariant coordinates carry
fractions.  Coordinates in a fixed basis are unique, so these matrices are
pinned entry for entry, not only up to rank.

Regenerate cases of ``golden/restrictions.json`` (only on purpose) with

    PYTHONPATH=src python tests/test_restrictions.py [CASE ...]

which rewrites the named cases, or all of ``CASES``, and keeps every other
key.  Three regenerations changed a basis but not the complex, and the
old matrices stay beside the new ones:

* ``harrison-regular3-m3`` when the Harrison space came to be built as the
  image of the Dynkin element instead of the Eulerian idempotent (the old
  set is ``harrison-regular3-m3-eulerian-basis``);
* ``harrison-regular3-m3`` and ``orbit-lie4~2-m3`` when coinvariant spaces
  came to be built from the stabilizer's generators instead of from the
  averaging projector (the old sets end in ``-averaging-basis``);
* ``harrison-regular3-m3`` when the basis of im D came to be the echelon
  form of D's pivot columns, ``echelon_basis(image_basis(D))``, instead of
  those columns themselves (the old set is
  ``harrison-regular3-m3-pivot-column-basis``).

Tests check that each old set is the new one in exactly that change of
basis.

The file stores each differential target-by-source, the transpose of
``CochainComplex.diffs[m]``, as the package once kept it (``stored``), so
it has not changed since; ``decode`` reads a set back source-by-target.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import TaggedInverseSolver, coinvariants

from cubix.cubical import OrbitComplexBuilder, cubical_complex
from cubix.harrison import (
    dynkin_terms,
    harrison_complex,
    orbit_eulerian_matrix,
    orbit_slot_operator,
)
from cubix.linalg import (
    RationalMatrix,
    RowSpanSolver,
    echelon_basis,
    image_basis,
    parse_scalar,
    rank,
)
from cubix.modules import builtin, random_basis_change
from cubix.perm import symmetric_group
from cubix.realizations import direct_complex

GOLDEN = Path(__file__).parent / "golden" / "restrictions.json"


def stored(diffs: dict) -> dict:
    """The differentials as the file stores them: target-by-source."""
    return {m: d.transpose() for m, d in diffs.items()}


CASES = {
    "harrison-regular3-m3": lambda: stored(harrison_complex(
        builtin("regular", 3), symmetric_group(3), 3
    ).diffs),
    "naive-regular2-m3": lambda: stored(cubical_complex(
        builtin("regular", 2), symmetric_group(2), 3, mode="naive"
    ).diffs),
    "direct-lie3-m4": lambda: stored(direct_complex("lie", 3, 4).diffs),
    "lie_cyclic3-generators": lambda: dict(
        enumerate(builtin("lie_cyclic", 3).gen_actions, start=1)
    ),
    "orbit-lie4~2-m3": lambda: stored(cubical_complex(
        random_basis_change(builtin("lie", 4), 2), symmetric_group(4), 3
    ).diffs),
}


def encode(mats: dict) -> dict:
    """{key: [nrows, ncols, sorted [i, j, "value"] triples]}, JSON-ready."""
    return {
        str(key): [
            mat.nrows,
            mat.ncols,
            sorted([i, j, str(mat.entry(i, j))] for i, row in mat.rows.items() for j in row),
        ]
        for key, mat in mats.items()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_restricted_matrices_match_golden(case):
    golden = json.loads(GOLDEN.read_text())
    assert encode(CASES[case]()) == golden[case]


def decode(mats: dict) -> dict:
    """Inverse of ``encode`` and ``stored`` on a differential set: integer
    keys, and each matrix source-by-target, as ``CochainComplex.diffs``."""
    return {
        int(key): RationalMatrix.from_entries(
            ncols, nrows, ((j, i, parse_scalar(v)) for i, j, v in triples)
        )
        for key, (nrows, ncols, triples) in mats.items()
    }


def assert_same_complex(old, new, change):
    """C_old P[m+1] = P[m] C_new for C = diffs[m], with every P[m] square
    and invertible.

    P[m] holds the old basis rows in new coordinates: with
    d(b_i) = sum_j C[i, j] b'_j, both sides are the images of the old
    basis in new coordinates.
    """
    assert sorted(old) == sorted(new) == [1, 2, 3]
    for p in change.values():
        assert p.nrows == p.ncols == rank(p)
    for m in (1, 2, 3):
        assert old[m] * change[m + 1] == change[m] * new[m]


def averaging_change(builder, m):
    """Block-diagonal over orbits: row i holds the class, in the builder's
    coinvariant basis, of the i-th row of the averaging projector's basis:
    its ``class_block`` row."""
    deg = builder.degree(m)
    dim = builder.module.dim
    entries = []
    for orbit, off, basis in zip(deg.orbits, deg.offsets, deg.coinv):
        _, rows = coinvariants(builder.module, orbit.stabilizer)
        assert len(rows) == basis.k
        block = basis.class_block(RationalMatrix.from_row_dicts(rows, basis.k, dim))
        for a, row in block.rows.items():
            entries.extend((off + a, off + b, Fraction(v, block.den)) for b, v in row.items())
    return RationalMatrix.from_entries(deg.dim, deg.dim, entries)


def inverse(q):
    # the oracle solves in q's numerator rows, q.den times q's rows
    solver = TaggedInverseSolver([q.rows.get(i, {}) for i in range(q.nrows)], q.ncols)
    inv = solver.solve(RationalMatrix.identity(q.nrows)).scale(q.den)
    assert q * inv == RationalMatrix.identity(q.nrows)
    return inv


def dynkin_basis(builder, m):
    """The basis of im D that ``harrison_complex`` restricts to."""
    dim = builder.degree(m).dim
    return echelon_basis(image_basis(orbit_slot_operator(builder, m, dynkin_terms(m))), dim)


def harrison_change(builder, m, old_operator):
    """Old Harrison basis rows, image_basis(old_operator) in the averaging
    coinvariant basis, as coordinates in the new one, the echelon form of
    image_basis(D) in the builder's coinvariant basis."""
    q = averaging_change(builder, m)
    # an operator A in new coordinates reads Q A Q^-1 in the old ones
    old_rows = image_basis(q * old_operator(builder, m) * inverse(q))
    old_basis = RationalMatrix.from_row_dicts(old_rows, len(old_rows), q.ncols)
    return RowSpanSolver(dynkin_basis(builder, m), q.ncols).solve(old_basis * q)


def test_orbit_golden_is_the_averaging_golden_in_another_basis():
    golden = json.loads(GOLDEN.read_text())
    old = decode(golden["orbit-lie4~2-m3-averaging-basis"])
    new = decode(golden["orbit-lie4~2-m3"])
    module = random_basis_change(builtin("lie", 4), 2)
    builder = OrbitComplexBuilder(module, symmetric_group(4))
    assert_same_complex(old, new, {m: averaging_change(builder, m) for m in range(1, 5)})


def test_harrison_golden_is_the_averaging_golden_in_another_basis():
    golden = json.loads(GOLDEN.read_text())
    old = decode(golden["harrison-regular3-m3-averaging-basis"])
    new = decode(golden["harrison-regular3-m3"])
    builder = OrbitComplexBuilder(builtin("regular", 3), symmetric_group(3))

    def dynkin(builder, m):
        return orbit_slot_operator(builder, m, dynkin_terms(m))

    change = {m: harrison_change(builder, m, dynkin) for m in range(1, 5)}
    assert_same_complex(old, new, change)


def test_harrison_golden_is_the_pivot_column_golden_in_another_basis():
    # the same coinvariant basis: only the basis of im D changed, from the
    # images of D that image_basis picks (D's pivot columns when differentials
    # were stored target-by-source) to their echelon form
    golden = json.loads(GOLDEN.read_text())
    old = decode(golden["harrison-regular3-m3-pivot-column-basis"])
    new = decode(golden["harrison-regular3-m3"])
    builder = OrbitComplexBuilder(builtin("regular", 3), symmetric_group(3))
    change = {}
    for m in range(1, 5):
        dim = builder.degree(m).dim
        images = image_basis(orbit_slot_operator(builder, m, dynkin_terms(m)))
        old_basis = RationalMatrix.from_row_dicts(images, len(images), dim)
        change[m] = RowSpanSolver(dynkin_basis(builder, m), dim).solve(old_basis)
    assert_same_complex(old, new, change)


def test_harrison_golden_is_the_eulerian_golden_in_another_basis():
    # the Eulerian set predates both changes: its Harrison basis is
    # image_basis(E), in the averaging coinvariant basis
    golden = json.loads(GOLDEN.read_text())
    old = decode(golden["harrison-regular3-m3-eulerian-basis"])
    new = decode(golden["harrison-regular3-m3"])
    builder = OrbitComplexBuilder(builtin("regular", 3), symmetric_group(3))

    change = {m: harrison_change(builder, m, orbit_eulerian_matrix) for m in range(1, 5)}
    assert_same_complex(old, new, change)


if __name__ == "__main__":
    data = json.loads(GOLDEN.read_text())
    for case in sys.argv[1:] or CASES:
        data[case] = encode(CASES[case]())
    GOLDEN.write_text(json.dumps(data, sort_keys=True) + "\n")
