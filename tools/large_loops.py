"""Time and size the build and the transport of one 10^6-segment library loop.

    python3 tools/large_loops.py SRC FAMILY [--block-rows N] [--segments N] [--repeats R]

SRC is the ``src`` directory of the checkout to measure and FAMILY is
``spinor`` (an UP spinor loop at theta = 1) or ``entangled`` (the two-qubit
family at theta = 1).  The two are timed apart:

- build: the loop's whole amplitude array, ``loop.amplitudes`` of a new loop.
- transport: ``holonomy_numeric`` of a new loop.  A spinor loop whose array
  has not been read is made a block of rows at a time as it is transported,
  so this stage runs first and never holds the array; the two-qubit family
  is built when it is made, so its transport reads the built loop.

With --block-rows, ``berry._BLOCK_ROWS`` is set before any loop is built; a
value at least the loop's row count makes every column pass run over whole
columns.  Run it once per process: the peak figures are the growth of the
process's peak resident size over its size before the first large loop,
read after each stage's first run.  Prints one JSON line with the median
build and transport seconds over R repeats and the two peaks, in MiB.
"""

import argparse
import json
import resource
import statistics
import sys
import time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src")
    parser.add_argument("family", choices=("spinor", "entangled"))
    parser.add_argument("--block-rows", type=int)
    parser.add_argument("--segments", type=int, default=10**6)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from spinphase import Orientation, berry, entangled_family_loop, holonomy_numeric, spinor_loop

    if args.block_rows is not None:
        berry._BLOCK_ROWS = args.block_rows

    def build(segments):
        if args.family == "entangled":
            return entangled_family_loop(1.0, segments)
        return spinor_loop(Orientation.UP, 1.0, segments)

    def peak_mib():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    def built(_):
        loop = build(args.segments)
        loop.amplitudes  # the whole array
        return loop

    # (name, stage): each stage takes the previous one's result
    if args.family == "entangled":
        stages = [("build", built), ("transport", holonomy_numeric)]
    else:
        stages = [("transport", lambda _: holonomy_numeric(build(args.segments))), ("build", built)]
    holonomy_numeric(build(8))  # first-call allocations are not the loop's
    base = peak_mib()
    seconds, peaks = {name: [] for name, _ in stages}, {}
    for _ in range(args.repeats):
        result = None
        for name, stage in stages:
            start = time.perf_counter()
            result = stage(result)
            seconds[name].append(time.perf_counter() - start)
            peaks.setdefault(name, peak_mib() - base)
        del result
    print(json.dumps({
        "family": args.family,
        "segments": args.segments,
        "block_rows": getattr(berry, "_BLOCK_ROWS", None),
        "repeats": args.repeats,
        "build_s": statistics.median(seconds["build"]),
        "transport_s": statistics.median(seconds["transport"]),
        "build_peak_mib": peaks["build"],
        "transport_peak_mib": peaks["transport"],
    }))


if __name__ == "__main__":
    main()
