"""Self-test of the benchmark harness on tiny configurations.

    python3 perfbench/selftest.py

Every case goes through the same code as ``run.py``:

* ``betti --family lie --n 3`` (Cor. 3: no cohomology) gives error rate 0,
  untraced and traced, and the traced run reports the metrics of the layers
  it runs;
* the same solve checked against a wrong expected table gives error rate 1;
* a seeded custom module (basis change of lie_cyclic(3), 4 slots) gives
  byte-identical tables for two seeds;
* a traced name that has gone missing is reported absent, and the run still
  completes;
* the paper-statement checks reject a nonzero Betti number and a failed
  verify check.

Exits 0 when every case passes.
"""

import contextlib
import dataclasses
import io
import sys

import run
from layertrace import Tracer, layer_metrics

LIE3 = run.Workload(("betti", "--family", "lie", "--n", "3"),
                    run.EXPECTED / "selftest-lie3.txt", run.no_cohomology)
SDER3 = run.Workload(("betti", "--family", "custom", "--custom", "{module}"),
                     run.EXPECTED / "selftest-sder3.txt", run.no_cohomology,
                     module=("lie_cyclic", 3))


def error_rate(result) -> float:
    return result["failed"] / result["attempted"]


def case_clean():
    plain = run.measure("selftest-lie3", LIE3, 1, 0, trace=False)
    traced = run.measure("selftest-lie3", LIE3, 1, 0, trace=True)
    metrics, summary = run.per_layer(traced)
    for r in (plain, traced):
        line = run.result_line(r, {}, [])
        assert error_rate(line) == 0, r["errors"]
    e2e = run.end_to_end(plain)
    assert all(v > 0 for v in e2e.values()), e2e
    assert metrics["cubical.assembly_s"] > 0 and metrics["linalg.rank_total"] > 0, metrics
    assert metrics["modules.build_s"] > 0 and metrics["cubical.dim_total"] == 140, metrics
    assert metrics["harrison.euler_terms"] == 0 and metrics["trace.overhead"] > 0, metrics
    assert summary["stages"]["cubical.assembly"] > 0 and not summary["absent"], summary
    return "lie n=3: error rate 0 untraced and traced; per-layer metrics present"


def case_wrong_expected():
    wrong = run.WORK / "wrong-lie3.txt"
    wrong.write_text(LIE3.expected.read_text().replace("cohomology: 0", "cohomology: k[-3]"))
    r = run.measure("selftest-lie3", dataclasses.replace(LIE3, expected=wrong), 1, 0, False)
    line = run.result_line(r, {}, [])
    assert error_rate(line) == 1 and not line["correct"], line
    return f"wrong expected table: error rate {line['failed']}/{line['attempted']}"


def case_seeds():
    outs = []
    for seed in (1, 2):
        r = run.measure("selftest-sder3", SDER3, seed, 0, trace=False)
        assert not r["errors"], r["errors"]
        outs.append(r["solves"][0]["stdout"])
    assert outs[0] == outs[1]
    return "seeded custom module: seeds 1 and 2 give byte-identical tables"


def case_absent():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import cubix.cli

    class Renamed(Tracer):
        def _targets(self):
            for module, attr, layer, opts in super()._targets():
                if attr == "orbit_eulerian_matrix":
                    attr = "no_longer_there"
                yield module, attr, layer, opts

    tracer = Renamed().install()
    with contextlib.redirect_stdout(io.StringIO()):
        code = tracer.call("cli.main", cubix.cli.main,
                           ["betti", "--family", "harrison", "--n", "2", "--mmax", "3"])
    metrics = layer_metrics(tracer.report())
    assert code == 0 and tracer.absent == ["cubix.harrison.no_longer_there"], tracer.absent
    assert "harrison.euler_s" not in metrics and "harrison.euler_terms" not in metrics
    assert metrics["harrison.self_s"] > 0
    return "missing traced name: reported absent, run completes"


def case_claims():
    table = LIE3.expected.read_text()
    assert run.no_cohomology(table) is None
    bad = table.replace("cohomology: 0", "cohomology: k[-3]")
    assert run.no_cohomology(bad) is not None
    lines = table.splitlines()
    lines[3] = lines[3][:-1] + "1"
    assert run.no_cohomology("\n".join(lines) + "\n") is not None
    verify = run.all_checks_pass(1)
    assert verify('PASS [x] a: b\n{"checks": 1, "failed": 0}\n') is None
    assert verify('FAIL [x] a: b\n{"checks": 1, "failed": 1}\n') is not None
    return "paper-statement checks reject a nonzero Betti number and a failed check"


def main() -> int:
    if not (run.SRC / "cubix" / "cli.py").is_file():
        print(f"error: no cubix sources at {run.SRC}", file=sys.stderr)
        return 2
    run.WORK.mkdir(parents=True, exist_ok=True)
    cases = (case_clean, case_wrong_expected, case_seeds, case_absent, case_claims)
    failed = 0
    for case in cases:
        try:
            print(f"ok   {case()}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {case.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
