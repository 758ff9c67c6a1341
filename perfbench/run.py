"""cubix benchmark: exact Betti tables through the real CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each solve calls ``cubix.cli.main(argv)`` in a fresh child process
(``child.py``), one child at a time: a closed loop with a single client.  A run makes rounds of solves while the next round is expected to
end within ``--seconds``; there is always at least one.  The child's stdout
must equal ``expected/<workload>.txt`` byte for byte and must also satisfy
the paper's statement for the workload (``claim``); a non-zero exit or
either mismatch makes the solve fail, and failed / attempted is the error
rate.

``--trace 0`` reports the end-to-end metrics: ``solve_s``, the median
seconds of the ``cli.main`` call as measured; ``setup_s``, the median
seconds from starting a child until ``import cubix.cli`` has finished, over
PROBES import-only children and scaled to the reference machine speed (see
``calibrate``); ``peak_rss_mb``, the median peak resident memory of the
solve children.  ``--trace 1`` alternates an untraced and a traced solve
and reports the per-layer metrics of ``layertrace.py`` plus
``trace.overhead`` (traced over untraced solve time); the full trace of the
last traced solve is written under ``.bench_build/``.  The last line of
stdout is the JSON result; a summary goes to stderr.  Metric names and
units are read from ``BENCHMARK.json``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
EXPECTED = BENCH / "expected"

DEFAULT_SEED = 1
PROBES = 10  # import-only children per run, for a steadier setup_s median
# Seconds calibrate() takes on the reference machine (2 vCPUs, Python 3.11);
# setup_s is scaled by CAL_REF_S / calibrate() measured around the probes.
CAL_REF_S = 0.05
CAL_LOOPS = 200_000
CHILD_TIMEOUT = 150
SEED_STRIDE = 1_000_000  # untraced solve k of a run (and the traced one after it) gets seed + k * stride


# -- what each workload must print -------------------------------------------


def no_cohomology(stdout: str):
    """Every Betti number is 0 (Cor. 3, Cor. 5, Harrison vanishing), and each
    row satisfies betti = dim - rank_d(m) - rank_d(m-1)."""
    lines = stdout.splitlines()
    if len(lines) < 3 or lines[-1] != "cohomology: 0":
        return "last line is not 'cohomology: 0'"
    prev_rank = 0
    for line in lines[1:-1]:
        try:
            m, dim, rank_d, betti = (int(x) for x in line.split())
        except ValueError:
            return f"unreadable table row {line!r}"
        if betti != 0 or betti != dim - rank_d - prev_rank:
            return f"row m={m} is {line.split()}, not acyclic"
        prev_rank = rank_d
    return None


def all_checks_pass(count: int):
    def claim(stdout: str):
        lines = stdout.splitlines()
        try:
            summary = json.loads(lines[-1])
        except (IndexError, ValueError):
            return "no JSON summary line"
        checks = lines[:-1]
        if summary.get("checks") != count or summary.get("failed") != 0:
            return f"summary {summary} is not {count} checks with 0 failed"
        if len(checks) != count or not all(c.startswith("PASS [") for c in checks):
            return f"not every one of the {count} check lines is a PASS"
        return None

    return claim


@dataclass(frozen=True)
class Workload:
    argv: tuple
    expected: Path
    claim: object
    batch: int = 1  # untraced solves per round
    module: tuple = None  # (builtin kind, n): each solve gets a seeded basis change


# Why each workload is here is recorded in BENCHMARK.json.  Each solves
# twice per run, which halves the run-to-run spread of the shorter solves;
# sder5-dense's two solves get two modules, as its solve time also varies
# with the basis change.  lie6 is not in BENCHMARK.json: its single 25-36 s
# solve spread up to 0.28 over ten runs on a shared 2-CPU host, above any
# allowed bound, and sder5-dense runs the same layers.  Run it by name.
WORKLOADS = {
    "lie6": Workload(
        ("betti", "--family", "lie", "--n", "6"),
        EXPECTED / "lie6.txt",
        no_cohomology,
    ),
    "harrison4": Workload(
        ("betti", "--family", "harrison", "--n", "4", "--mmax", "5"),
        EXPECTED / "harrison4.txt",
        no_cohomology,
        batch=2,
    ),
    "sder5-dense": Workload(
        ("betti", "--family", "custom", "--custom", "{module}"),
        EXPECTED / "sder5-dense.txt",
        no_cohomology,
        batch=2,
        module=("lie_cyclic", 5),
    ),
    "verify": Workload(
        ("verify", "--suite", "all", "--nmax", "4", "--jobs", "1"),
        EXPECTED / "verify.txt",
        all_checks_pass(81),
        batch=2,
    ),
}


# -- child processes ------------------------------------------------------------


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed solve)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CUBIX_CAP", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["CUBIX_BENCH_SRC"] = str(SRC)
    return env


def run_child(mode: str, cli_args=()) -> dict:
    """Start one child, wait for it, and return what it measured."""
    WORK.mkdir(parents=True, exist_ok=True)
    record_path = WORK / f"record-{os.getpid()}.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), mode, str(record_path), *cli_args]
    begin = time.monotonic()
    wall = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return {"exit": None, "stdout": "", "stderr": "timed out", "wall": CHILD_TIMEOUT}
    out = {
        "exit": proc.returncode,
        "stdout": proc.stdout,
        "stderr": proc.stderr,
        "wall": time.perf_counter() - wall,
    }
    try:
        with open(record_path) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        return out
    record_path.unlink()
    out["setup_s"] = record["setup_end"] - begin
    out["solve_s"] = record.get("solve_s")
    out["maxrss_kb"] = record["maxrss_kb"]
    out["trace"] = record.get("trace")
    return out


def probe() -> float:
    sample = run_child("probe")
    if sample["exit"] != 0 or "setup_s" not in sample:
        raise HarnessError(f"cannot import cubix.cli from {SRC}: {sample['stderr'].strip()}")
    return sample["setup_s"]


def calibrate() -> float:
    """Median seconds of five passes of a fixed pure-Python loop of dict
    updates and integer arithmetic, the work an import and cubix do.

    The host this was tuned on changes speed by up to half from one second
    to the next, which swamps a 0.1 s import.  A probe time scaled by
    CAL_REF_S / calibrate(), taken within a second of it, compares across
    runs; a solve lasts too long for that, so solve times stay as measured.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = {}
        for i in range(CAL_LOOPS):
            k = i % 997
            acc[k] = acc.get(k, 0) + i * i // 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup_samples() -> list:
    """PROBES import times, each scaled to the reference speed.

    The probes and their calibrations run on one CPU, so that calibrate()
    measures the CPU the probes ran on (the CPUs of a shared host can
    differ in speed by half); solves are left to the scheduler afterwards.
    """
    pinnable = hasattr(os, "sched_setaffinity")
    if pinnable:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    try:
        before = calibrate()
        raw = [probe() for _ in range(PROBES)]
        scale = 2 * CAL_REF_S / (before + calibrate())
    finally:
        if pinnable:
            os.sched_setaffinity(0, cpus)
    return [(t * scale, t) for t in raw]


def write_module(kind: str, n: int, seed: int, path: Path):
    """Seeded input, written before the timed window from public cubix.modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cubix.modules import builtin, random_basis_change, serialize_module

    data = serialize_module(random_basis_change(builtin(kind, n), seed))
    path.write_text(json.dumps(data, sort_keys=True) + "\n")


def failure(workload: Workload, sample: dict):
    """Why a solve failed, or None when its output is correct."""
    if sample["exit"] != 0:
        return f"exit code {sample['exit']}: {sample['stderr'].strip()[-300:]}"
    if sample.get("solve_s") is None:
        return "child wrote no record"
    if sample["stdout"] != workload.expected.read_text():
        return f"stdout differs from {workload.expected.name}"
    return workload.claim(sample["stdout"])


# -- one run ----------------------------------------------------------------------


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Solve repeatedly for about ``seconds`` and collect every sample.

    A round is ``workload.batch`` untraced solves, or with ``trace`` one
    untraced and one traced solve; rounds repeat while the next one is
    expected to end within ``seconds``.
    """
    if not workload.expected.is_file():
        raise HarnessError(f"missing expected output {workload.expected}")
    probe()  # fills the bytecode cache; not counted
    setups = setup_samples()
    solves, traced, errors = [], [], []
    modes = ("solve", "trace") if trace else ("solve",) * workload.batch
    module_path = WORK / f"{name}-module.json"
    argv = [str(module_path) if a == "{module}" else a for a in workload.argv]
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for mode in modes:
            if mode == "solve" and workload.module is not None:
                write_module(*workload.module, seed + len(solves) * SEED_STRIDE, module_path)
            sample = run_child(mode, argv)
            why = failure(workload, sample)
            if why is not None:
                errors.append(f"{mode} #{len(solves) + len(traced)}: {why}")
            (traced if mode == "trace" else solves).append(sample)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return {"setups": setups, "solves": solves, "traced": traced, "errors": errors}


def solve_times(samples) -> list:
    return [s["solve_s"] if s.get("solve_s") is not None else s["wall"] for s in samples]


def end_to_end(run: dict) -> dict:
    rss = [s["maxrss_kb"] / 1024 for s in run["solves"] if "maxrss_kb" in s]
    return {
        "solve_s": statistics.median(solve_times(run["solves"])),
        "setup_s": statistics.median(scaled for scaled, _ in run["setups"]),
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
    }


def per_layer(run: dict) -> tuple:
    """(metric values, trace summary) from the traced solves of one run."""
    from layertrace import layer_metrics, stages

    reports = [s["trace"] for s in run["traced"] if s.get("trace")]
    values = {}
    for report in reports:
        for metric, value in layer_metrics(report).items():
            values.setdefault(metric, []).append(value)
    metrics = {m: statistics.median(v) for m, v in values.items()}
    overhead = statistics.median(solve_times(run["traced"])) / statistics.median(
        solve_times(run["solves"])
    )
    metrics["trace.overhead"] = overhead
    last = reports[-1] if reports else {"spans": [], "absent": []}
    summary = {
        "overhead": overhead,
        "untraced_solve_s": solve_times(run["solves"]),
        "traced_solve_s": solve_times(run["traced"]),
        "metrics": metrics,
        "stages": stages(last["spans"]),
        "absent": last["absent"],
        "last_trace": last,
    }
    return metrics, summary


def result_line(run: dict, metrics: dict, declared: list) -> dict:
    attempted = len(run["solves"]) + len(run["traced"])
    failed = len(run["errors"])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in metrics
        },
    }


def main(argv=None) -> int:
    # SystemExit unwinds through subprocess.run, which kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cubix" / "cli.py").is_file():
        print(f"error: no cubix sources at {SRC}", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, summary = per_layer(run)
        declared = spec["per_layer"]
        trace_path = WORK / f"trace-{args.workload}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          **summary}))
        print(f"trace: {trace_path}", file=sys.stderr)
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            print(f"absent (traced name not found): {', '.join(missing)}", file=sys.stderr)
    else:
        metrics = end_to_end(run)
        declared = spec["end_to_end"]
    line = result_line(run, metrics, declared)
    for e in run["errors"]:
        print(f"FAILED {e}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(run['solves'])} solves "
        f"{[round(t, 3) for t in solve_times(run['solves'])]} s; setup median "
        f"{statistics.median(raw for _, raw in run['setups']):.4f} s as measured; "
        f"error_rate={line['failed']}/{line['attempted']}",
        file=sys.stderr,
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
