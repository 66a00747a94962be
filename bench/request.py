"""Run one ``aggclosure`` CLI request in a fresh process and report it.

Usage: ``python3 bench/request.py TRACE COMMAND ARGS...`` where TRACE is
0 or 1 and the rest is the argument list of ``aggclosure.cli.main``.

Prints one JSON line: the exit code, what the command printed, the
monotonic clock just before ``cli.main`` (the parent subtracts its spawn
time from it to get set-up time), the compute time of ``cli.main``, the
process's peak RSS and, with TRACE 1, the per-function trace.
"""

import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import aggclosure.cli as cli  # noqa: E402


def main() -> None:
    tracing = sys.argv[1] == "1"
    argv = sys.argv[2:]
    tracer = None
    if tracing:
        sys.path.insert(0, _HERE)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    ready_ns = time.monotonic_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        code = cli.main(argv)
        main_s = time.perf_counter() - started

    import json
    import resource

    record = {
        "returncode": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "ready_ns": ready_ns,
        "main_s": main_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
