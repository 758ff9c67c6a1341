"""Restricted matrices against frozen values.

Each case restricts a linear map to a fixed basis of an invariant subspace:
the Harrison differential, the naive-mode differential, the Lyndon-basis
differential of the direct free-Lie complex, the cyclic action on the Lie
bracket basis, and an orbit complex whose coinvariant coordinates carry
fractions.  Coordinates in a fixed basis are unique, so these matrices are
pinned entry for entry, not only up to rank.

Regenerate ``golden/restrictions.json`` (only on purpose) with

    PYTHONPATH=src python tests/test_restrictions.py
"""

import json
from pathlib import Path

import pytest

from cubix.cubical import cubical_complex
from cubix.harrison import harrison_complex
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


if __name__ == "__main__":
    data = {case: encode(build()) for case, build in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(data, sort_keys=True) + "\n")
