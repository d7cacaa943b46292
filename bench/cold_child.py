"""Traced stand-in for the console entry point, run as a fresh interpreter.

    PYTHONPATH=src python3 bench/cold_child.py <spinphase argv>

Behaves like ``python -c "from spinphase.cli import main; main()" <argv>``
(same stdout, exit code and diagnostics), then appends one line to stderr:
``perfbench-trace {json}`` with the import stages, the dispatch time and the
span table of the call.
"""

import time

_t0 = time.perf_counter()
import numpy  # noqa: E402,F401

_t1 = time.perf_counter()
import spinphase.cli  # noqa: E402

_t2 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    code = spinphase.cli.dispatch(sys.argv[1:])
    dispatch_s = time.perf_counter() - start
    tracer.uninstall()
    sys.stdout.flush()
    report = {"numpy_ms": (_t1 - _t0) * 1e3, "spinphase_ms": (_t2 - _t1) * 1e3,
              "dispatch_ms": dispatch_s * 1e3, "table": tracer.snapshot()}
    sys.stderr.write("perfbench-trace " + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
