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
key.  ``harrison-regular3-m3`` was regenerated when the Harrison space
came to be built as the image of the Dynkin element instead of the
Eulerian idempotent: the subspace is the same, its basis is not.  The old
matrices stay under ``harrison-regular3-m3-eulerian-basis``, and a test
checks that the two sets differ by exactly that change of basis.
"""

import json
import sys
from pathlib import Path

import pytest

from cubix.cubical import OrbitComplexBuilder, cubical_complex
from cubix.harrison import (
    dynkin_terms,
    harrison_complex,
    orbit_eulerian_matrix,
    orbit_slot_operator,
)
from cubix.linalg import RationalMatrix, RowSpanSolver, image_basis, parse_scalar, rank
from cubix.modules import builtin, random_basis_change
from cubix.perm import symmetric_group
from cubix.realizations import direct_complex

GOLDEN = Path(__file__).parent / "golden" / "restrictions.json"

CASES = {
    "harrison-regular3-m3": lambda: harrison_complex(
        builtin("regular", 3), symmetric_group(3), 3
    ).diffs,
    "naive-regular2-m3": lambda: cubical_complex(
        builtin("regular", 2), symmetric_group(2), 3, mode="naive"
    ).diffs,
    "direct-lie3-m4": lambda: direct_complex("lie", 3, 4).complex.diffs,
    "lie_cyclic3-generators": lambda: dict(
        enumerate(builtin("lie_cyclic", 3).gen_actions, start=1)
    ),
    "orbit-lie4~2-m3": lambda: cubical_complex(
        random_basis_change(builtin("lie", 4), 2), symmetric_group(4), 3
    ).diffs,
}


def encode(mats: dict) -> dict:
    """{key: [nrows, ncols, sorted [i, j, "value"] triples]}, JSON-ready."""
    return {
        str(key): [
            mat.nrows,
            mat.ncols,
            sorted([i, j, str(v)] for i, row in mat.rows.items() for j, v in row.items()),
        ]
        for key, mat in mats.items()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_restricted_matrices_match_golden(case):
    golden = json.loads(GOLDEN.read_text())
    assert encode(CASES[case]()) == golden[case]


def decode(mats: dict) -> dict:
    """Inverse of ``encode``, with integer keys."""
    return {
        int(key): RationalMatrix.from_entries(
            nrows, ncols, ((i, j, parse_scalar(v)) for i, j, v in triples)
        )
        for key, (nrows, ncols, triples) in mats.items()
    }


def test_harrison_golden_is_the_eulerian_golden_in_another_basis():
    # P[m] holds the Eulerian basis rows in Dynkin coordinates, so for
    # C = diffs[m], with d(b_j) = sum_i C[i, j] b'_i, the frozen matrices
    # must satisfy C_old^T P[m+1] = P[m] C_new^T, with every P[m] invertible
    golden = json.loads(GOLDEN.read_text())
    old = decode(golden["harrison-regular3-m3-eulerian-basis"])
    new = decode(golden["harrison-regular3-m3"])
    builder = OrbitComplexBuilder(builtin("regular", 3), symmetric_group(3))
    change = {}
    for m in range(1, 5):
        dim = builder.degree(m).dim
        euler = RowSpanSolver(image_basis(orbit_eulerian_matrix(builder, m)[0]), dim)
        dynkin = image_basis(orbit_slot_operator(builder, m, dynkin_terms(m)))
        change[m] = RowSpanSolver(dynkin, dim).solve(euler.basis)
        assert change[m].shape == (euler.k, euler.k)
        assert rank(change[m]) == euler.k
    assert sorted(old) == sorted(new) == [1, 2, 3]
    for m in (1, 2, 3):
        assert old[m].transpose() * change[m + 1] == change[m] * new[m].transpose()


if __name__ == "__main__":
    data = json.loads(GOLDEN.read_text())
    for case in sys.argv[1:] or CASES:
        data[case] = encode(CASES[case]())
    GOLDEN.write_text(json.dumps(data, sort_keys=True) + "\n")
