"""One measured cubix process, started by ``run.py``.

    python3 child.py probe RECORD
    python3 child.py solve RECORD CLI-ARGS...
    python3 child.py trace RECORD CLI-ARGS...

``probe`` only imports ``cubix.cli``; ``solve`` then calls
``cubix.cli.main(CLI-ARGS)`` with stdout left to the parent; ``trace`` does
the same under the per-layer tracer.  Each mode writes one JSON record to
RECORD when it finishes: the ``time.monotonic()`` reading right after the
import (the parent took its own reading before starting this process, and
both read the same system-wide clock), the solve time, the exit code, the
peak resident memory and, when traced, the trace.  The process exits with
the CLI's exit code.
"""

import sys
import time

import cubix.cli  # setup time ends when this import has finished

SETUP_END = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def main(argv) -> int:
    mode, record_path, cli_args = argv[0], argv[1], argv[2:]
    src = os.environ["CUBIX_BENCH_SRC"]
    if not os.path.abspath(cubix.cli.__file__).startswith(src + os.sep):
        print(f"cubix imported from {cubix.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    record = {"setup_end": SETUP_END}
    code = 0
    if mode in ("solve", "trace"):
        tracer = None
        if mode == "trace":
            from layertrace import Tracer

            tracer = Tracer().install()
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cubix.cli.main(cli_args)
            else:
                code = tracer.call("cli.main", cubix.cli.main, cli_args)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        record["solve_s"] = time.perf_counter() - start
        sys.stdout.flush()
        if tracer is not None:
            record["trace"] = tracer.report()
    elif mode != "probe":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    record["exit"] = code
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
