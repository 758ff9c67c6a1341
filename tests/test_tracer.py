"""The names the benchmark's per-layer tracer wraps.

``perfbench/layertrace.py`` wraps cubix functions by name and reads
arguments and attributes in its hooks; a name it cannot find drops the
metrics that only it feeds.  Each case runs one traced CLI command through
``perfbench/child.py`` and checks that it exits 0, that no traced name is
absent, and that it yields every per-layer metric ``BENCHMARK.json``
declares (``trace.overhead`` is computed by ``run.py``, not from a trace).
Nothing is written outside the test's temporary directory.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"


def _layertrace(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layertrace", BENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--family", "harrison", "--n", "3"],
        ["verify", "--suite", "all", "--nmax", "2", "--jobs", "1"],
    ],
    ids=["betti-harrison-3", "verify-all-2"],
)
def test_a_traced_run_yields_every_declared_layer_metric(argv, tmp_path, monkeypatch):
    record_path = tmp_path / "record.json"
    env = {
        **os.environ,
        "PYTHONPATH": str(SRC),
        "CUBIX_BENCH_SRC": str(SRC),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    done = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "trace", str(record_path), *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(record_path.read_text())
    assert record["exit"] == 0
    assert record["trace"]["absent"] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    want = {m["name"] for m in declared} - {"trace.overhead"}
    assert len(want) == 36
    got = _layertrace(monkeypatch).layer_metrics(record["trace"])
    assert sorted(want - set(got)) == []
