"""spinphase benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload {loop_transport,cli_sweep,cli_cold} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.  One
single-threaded process sends ops in a closed loop with one client: op i+1
starts only after op i has finished and its output has been checked.  The
last stdout line is the result; the line before it records the environment,
sample counts and (traced) the per-layer accounting.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
MIN_SAMPLES = 100  # so op_ms_p90 has ten samples beyond it
SETUP_REPEATS = 5
PROBE_RUNS = 10  # traced cold CLI runs behind the import.* rows

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # keep numpy single-threaded, in children too


def percentile(samples, q: float, min_beyond: int = 10):
    """Inclusive-method q-quantile, or None when fewer than min_beyond samples lie beyond it."""
    n = len(samples)
    if n == 0 or n - math.ceil(q * n - 1e-9) < min_beyond:
        return None
    s = sorted(samples)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    if frac == 0.0 or s[lo] == s[hi]:
        return s[lo]
    if math.isinf(s[hi]):
        return math.inf
    return s[lo] + (s[hi] - s[lo]) * frac


@dataclass
class Op:
    seconds: float
    ok: bool
    traced: bool


def run_one(wl, i: int, tracer) -> Op:
    """Execute and then check op i; any exception or wrong output fails the op."""
    ok = True
    start = time.perf_counter()
    try:
        out = wl.execute(i) if tracer is None else tracer.call("bench.op", wl.execute, i)
    except (Exception, SystemExit) as exc:  # the op boundary: record and go on
        ok = False
        print(f"bench: op {i} raised {exc!r}", file=sys.stderr)
    elapsed = time.perf_counter() - start
    if ok:
        try:
            wl.check(i, out)
        except Exception as exc:
            ok = False
            print(f"bench: op {i} failed its check: {exc}", file=sys.stderr)
    return Op(elapsed, ok, tracer is not None)


def run_window(wl, seconds: float, tracer=None) -> list[Op]:
    """Whole cycles of ops for at least ``seconds`` (and MIN_SAMPLES ops untraced).

    With a tracer, cycles alternate untraced / traced and the run ends on a
    traced cycle, so both halves see the same slot mix.  A run stops after
    twice ``seconds`` whatever it has.
    """
    ops: list[Op] = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and (i // wl.cycle) % 2 == 1
        wl.tracer = tracer if traced else None
        if traced:
            tracer.install()
        try:
            for _ in range(wl.cycle):
                ops.append(run_one(wl, i, wl.tracer))
                i += 1
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        if tracer is not None and not traced:
            continue
        if elapsed >= 2 * seconds or (
                elapsed >= seconds and (tracer is not None or len(ops) >= MIN_SAMPLES)):
            break
    wl.tracer = None
    return ops


def time_child(cmd: list[str], env: dict) -> float:
    """Wall seconds of one child process, start to exit."""
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, check=True, timeout=120)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# end to end


def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh benchmark process to its first timed op."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=170)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup run failed: {err.decode(errors='replace')[-500:]}")
    return elapsed


def end_to_end(ops: list[Op], setups: list[float], rss_kib: int) -> tuple[dict, dict]:
    lat_ms = [op.seconds * 1e3 if op.ok else math.inf for op in ops]
    n_ok = sum(op.ok for op in ops)
    busy = sum(op.seconds for op in ops)
    p90 = percentile(lat_ms, 0.9)
    floor_met = p90 is not None
    if not floor_met:  # only when a run hit its hard stop short of MIN_SAMPLES ops
        p90 = percentile(lat_ms, 0.9, min_beyond=1)
    metrics = {
        "ops_per_s": (n_ok / busy, "1/s"),
        "op_ms_p50": (percentile(lat_ms, 0.5, min_beyond=1), "ms"),
        "op_ms_p90": (p90, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
        "success_rate": (n_ok / len(ops), "ratio"),
    }
    samples = {"ops_per_s": len(ops), "op_ms_p50": len(ops), "op_ms_p90": len(ops),
               "setup_s": len(setups), "peak_rss_mib": 1, "success_rate": len(ops)}
    detail = {"samples": samples, "busy_s": busy, "p90_floor_met": floor_met}
    return metrics, detail


# ---------------------------------------------------------------------------
# per layer


def layer_metrics(tracer, ops: list[Op], wl, probe: dict) -> tuple[dict, dict]:
    from tracing import SPAN_NAMES

    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    n = len(traced)
    traced_s = sum(op.seconds for op in traced)
    metrics = {}
    for name in SPAN_NAMES + ("bench.op",):
        metrics[f"{name}.calls"] = (tracer.calls[name] / n, "count/op")
        metrics[f"{name}.self_ms"] = (tracer.self_s[name] * 1e3 / n, "ms/op")
    c = tracer.counters
    metrics["berry.holonomy_numeric.segments"] = (
        c["berry.holonomy_numeric.segments"] / n, "count/op")
    metrics["berry.holonomy_numeric.bytes_computed"] = (
        c["berry.holonomy_numeric.bytes_computed"] / n, "B/op")
    metrics["states.PureState.per_segment"] = (
        c["loop.states"] / c["loop.segments"] if c["loop.segments"] else 0.0, "ratio")
    metrics["cli.argparse.parses_per_record"] = (
        tracer.calls["cli.argparse.parse"] / c["cli.emit.records"]
        if c["cli.emit.records"] else 0.0, "ratio")
    metrics["cli.emit.bytes"] = (c["cli.emit.bytes"] / n, "B/op")
    for key in ("python_bare_ms", "numpy_ms", "spinphase_ms"):
        metrics[f"import.{key}"] = (probe[key], "ms")
    metrics["cli.dispatch_ms"] = (probe["dispatch_ms"], "ms")
    metrics["trace.overhead_ms"] = (
        (statistics.median(op.seconds for op in traced)
         - statistics.median(op.seconds for op in plain)) * 1e3, "ms")

    # accounting: how much of the traced op time the layer rows explain
    op_ms = traced_s * 1e3 / n
    if wl.name == "cli_cold":
        rows = {"import.python_bare": probe["python_bare_ms"]}
        for key in ("numpy_ms", "spinphase_ms", "dispatch_ms"):
            rows[f"child.{key[:-3]}"] = statistics.fmean(s[key] for s in wl.stages)
        explained = sum(rows.values())
        rows.update({name: tracer.self_s[name] * 1e3 / n for name in SPAN_NAMES})
    else:
        rows = {name: tracer.self_s[name] * 1e3 / n for name in SPAN_NAMES}
        explained = sum(rows.values())
    metrics["trace.layer_share"] = (explained / op_ms, "ratio")
    table = sorted(((k, v, v / op_ms) for k, v in rows.items() if v > 0.0),
                   key=lambda row: -row[1])
    detail = {"traced_ops": n, "untraced_ops": len(plain), "traced_op_ms": op_ms,
              "accounting": [{"row": k, "ms_per_op": v, "share": s} for k, v, s in table]}
    return metrics, detail


def import_probe(seed: int, workdir: Path) -> tuple[dict, list[Op]]:
    """Cold CLI runs of bench/cold_child.py: interpreter, numpy, spinphase, dispatch."""
    from tracing import Tracer
    from workloads import CliCold

    cold = CliCold(ROOT, seed, workdir)
    cold.tracer = Tracer()  # spans of the probe are discarded; only its stages count
    ops = [run_one(cold, i, cold.tracer) for i in range(PROBE_RUNS)]
    bare = [time_child([sys.executable, "-c", "pass"], cold.env) * 1e3
            for _ in range(PROBE_RUNS)]
    probe = {"python_bare_ms": statistics.median(bare)}
    for key in ("numpy_ms", "spinphase_ms", "dispatch_ms"):
        probe[key] = statistics.median(s[key] for s in cold.stages)
    return probe, ops


# ---------------------------------------------------------------------------
# environment


def environment(workload: str, seed: int) -> dict:
    import importlib.metadata

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [ROOT / "pyproject.toml"]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu, "machine": platform.machine(), "system": platform.system(),
        # the checkout is not a git repository: this digest of src/ stands for the commit
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("loop_transport", "cli_sweep", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, run the warm-up op, print 'ready' and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spinphase" / "cli.py").is_file():
        print(f"bench: no spinphase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = importlib.util.find_spec("spinphase")
    if not Path(spec.origin).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: spinphase would load from {spec.origin}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed, workdir)
        warm = run_one(wl, 0, None)
        if not warm.ok:
            print("bench: warm-up op failed", file=sys.stderr)
            return 3
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return measure(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, workdir: Path) -> int:
    detail = {"environment": environment(args.workload, args.seed),
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        from tracing import Tracer

        probe, probe_ops = import_probe(args.seed, workdir)
        tracer = Tracer()
        ops = run_window(wl, args.seconds, tracer)
        metrics, more = layer_metrics(tracer, ops, wl, probe)
        ops += probe_ops
        detail["import_probe"] = probe
        for row in more["accounting"]:
            print(f"{row['row']:<36} {row['ms_per_op']:10.3f} ms/op {row['share']:7.1%}",
                  file=sys.stderr)
    else:
        ops = run_window(wl, args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
        rss_kib = resource.getrusage(who).ru_maxrss
        setups = [time_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        metrics, more = end_to_end(ops, setups, rss_kib)
        detail["setup_runs_s"] = setups
    detail.update(more)
    failed = sum(not op.ok for op in ops)
    out = {}
    for name, (value, unit) in metrics.items():
        if value is None or not math.isfinite(value):
            value = sys.float_info.max  # a failed op misses every latency limit
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({"bench": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": out}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
