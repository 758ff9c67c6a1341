"""Repeat run.py over several seeds and report each metric's spread.

    python3 perfbench/repeat.py [--workload NAME ...] [--runs 10] [--first-seed 1]
                                [--traced] [--write FILE]

For every workload (default: all in BENCHMARK.json) it runs ``run.py`` once
per seed, one run at a time, and prints for each end-to-end metric the
median, the quartiles (``statistics.quantiles(values, n=4)``), the spread
(interquartile distance over the median) and that spread as a share of the
metric's bound.  ``--traced`` adds one ``--trace 1`` run per workload at the
first seed, with the inclusive seconds of each traced stage.  ``--write``
stores everything, with the machine and Python version, as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    out = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
        "default_seed": DEFAULT_SEED,
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for name in workloads:
        runs = [one_run(name, s, spec["run_seconds"], 0) for s in seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": {},
        }
        ok &= entry["correct"]
        print(f"{name}: correct={entry['correct']} solves per run={entry['attempted']}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            stats = spread(values)
            entry["metrics"][metric] = {**stats, "values": values}
            print(f"  {metric:12s} median={stats['median']:.4f} q1={stats['q1']:.4f} "
                  f"q3={stats['q3']:.4f} spread={stats['spread']:.3f} "
                  f"= {stats['spread'] / bound:.2f} of bound {bound}")
        if args.traced:
            traced = one_run(name, seeds[0], spec["run_seconds"], 1)
            ok &= traced["correct"]
            entry["per_layer"] = {m: v["value"] for m, v in traced["metrics"].items()}
            trace_file = ROOT / ".bench_build" / "perfbench" / f"trace-{name}.json"
            entry["stages"] = json.loads(trace_file.read_text())["stages"]
            print(f"  traced: correct={traced['correct']} "
                  f"overhead={entry['per_layer'].get('trace.overhead')}")
        out["workloads"][name] = entry
        sys.stdout.flush()
    if args.write:
        args.write.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
