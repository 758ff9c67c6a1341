"""Acceptance criteria, one test per criterion.

Every comparison is exact integer equality; there are no tolerances
anywhere.  Each test prints a single summary line; with pytest -v the test
line itself is the pass/fail record for its criterion.  The whole file is
meant to finish in well under ten minutes on a laptop-class machine.
"""

from cubix.cubical import cubical_complex, full_complex
from cubix.modules import builtin
from cubix.perm import symmetric_group
from cubix.suites import run_suite


def _run(criterion: int, label: str, suite: str, nmax: int):
    checks = run_suite(suite, nmax=nmax)
    failed = [c for c in checks if not c.passed]
    verdict = "FAIL" if failed else "PASS"
    print(f"criterion {criterion} ({label}): {verdict} [{len(checks)} checks]")
    assert not failed, "\n".join(f"{c.name}: {c.detail}" for c in failed)
    return checks


def test_criterion_01_full_complex_concentration():
    # word complex: a single cohomology class, in degree n, for n <= 4
    _run(1, "full complex", "prop1", nmax=4)
    assert full_complex(4, 6).betti_table().bettis() == (0, 0, 0, 1, 0, 0)


def test_criterion_02_concentration_with_multiplicity():
    # builtins for n <= 4 plus three basis-changed custom modules over S3;
    # cohomology sits in degree n with the sign-coinvariant dimension
    _run(2, "module concentration", "cor2", nmax=4)


def test_criterion_03_lie_family():
    # b1 = 1 at n = 1, b2 = 1 at n = 2, nothing at all for n in {3, 4, 5}
    _run(3, "lie family", "cor3", nmax=5)
    table = cubical_complex(builtin("lie", 5), symmetric_group(5), 7).betti_table()
    assert table.bettis() == (0, 0, 0, 0, 0, 0, 0)


def test_criterion_04_regular_family():
    # one class in degree n for every n <= 4
    _run(4, "regular family", "ass", nmax=4)


def test_criterion_05_trace_family():
    # b^n = 1 for odd n, everything zero for even n, through n = 5
    _run(5, "trace family", "cor4", nmax=5)
    table = cubical_complex(
        builtin("tr_cyclic", 5), symmetric_group(5), 7
    ).betti_table()
    assert table.bettis() == (0, 0, 0, 0, 1, 0, 0)


def test_criterion_06_cyclic_lie_family():
    # over n+1 slots: b3 = 1 at n = 2, nothing for n in {3, 4}
    _run(6, "cyclic lie family", "cor5", nmax=4)


def test_criterion_07_harrison():
    # n = 1 carries dim M; n in {2, 3} carry nothing for trivial/regular/lie
    _run(7, "harrison", "harrison", nmax=3)


def test_criterion_08_oracle_equivalence():
    # orbit vs naive vs quotient for all builtins (n <= 3), direct
    # realizations vs the quotient engine for ass/lie/tr (n <= 4, degrees
    # through 6)
    _run(8, "oracle equivalence", "oracles", nmax=4)


def test_criterion_09_induction_invariance():
    # a subgroup complex and its induced-module complex have equal tables
    _run(9, "induction invariance", "induction", nmax=4)


def test_criterion_10_structural_identities():
    # d.d = 0, equivariance, Coxeter, Jacobi, Eulerian idempotency
    _run(10, "structural identities", "structural", nmax=4)
