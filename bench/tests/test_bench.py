"""Tests of the benchmark itself (not of spinphase).

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import math
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_inputs_repeat_for_the_same_seed(tmp_path):
    a = workloads.LoopTransport(ROOT, 7, tmp_path)
    b = workloads.LoopTransport(ROOT, 7, tmp_path)
    other = workloads.LoopTransport(ROOT, 8, tmp_path)
    assert [a.inputs(i) for i in range(40)] == [b.inputs(i) for i in range(40)]
    assert [a.inputs(i) for i in range(40)] != [other.inputs(i) for i in range(40)]

    cold, cold_again = workloads.CliCold(ROOT, 7, tmp_path), workloads.CliCold(ROOT, 7, tmp_path)
    assert [cold.inputs(i) for i in range(30)] == [cold_again.inputs(i) for i in range(30)]
    assert [cold.inputs(i) for i in range(30)] != \
        [workloads.CliCold(ROOT, 8, tmp_path).inputs(i) for i in range(30)]

    files = workloads.write_circuit_files(tmp_path)
    assert workloads.sweep_cases(7, files) == workloads.sweep_cases(7, files)
    assert workloads.sweep_cases(7, files) != workloads.sweep_cases(8, files)


def test_self_time_is_duration_minus_child_coverage():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])  # outer [0,10], children [1,3] and [4,4.5]
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def outer():
        tracer.call("child", lambda: None)
        tracer.call("child", lambda: None)

    tracer.call("outer", outer)
    assert tracer.calls == {"outer": 1, "child": 2}
    assert tracer.self_s["child"] == pytest.approx(2.5)
    assert tracer.self_s["outer"] == pytest.approx(10.0 - 2.5)


def test_re_entered_span_folds_into_the_open_one():
    ticks = iter([0.0, 5.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.call("parse", lambda: tracer.call("parse", lambda: None))
    assert tracer.calls == {"parse": 1}
    assert tracer.self_s["parse"] == pytest.approx(5.0)


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile(list(range(99)), 0.9) is None
    samples = [float(x) for x in range(100)]
    assert run.percentile(samples, 0.9) == pytest.approx(
        statistics.quantiles(samples, n=10, method="inclusive")[8])
    assert run.percentile(samples, 0.5) == statistics.median(samples)
    assert run.percentile([1.0, 2.0, math.inf] * 40, 0.9) == math.inf


def test_wrong_output_is_counted_as_failed(tmp_path, monkeypatch):
    import spinphase

    wl = workloads.LoopTransport(ROOT, 3, tmp_path)
    _, spin, theta, segments = wl.inputs(0)
    right = oracles.latitude_transport(spin, theta, segments)
    monkeypatch.setattr(wl, "execute", lambda i: spinphase.GeometricPhase.wrapped(right))
    assert run.run_one(wl, 0, None).ok
    monkeypatch.setattr(wl, "execute", lambda i: spinphase.GeometricPhase.wrapped(right + 1e-7))
    bad = run.run_one(wl, 0, None)
    assert not bad.ok
    good = run.run_one(workloads.LoopTransport(ROOT, 3, tmp_path), 1, None)
    metrics, _ = run.end_to_end([good, bad], [1.0], 1024)
    assert metrics["success_rate"][0] == 0.5

    cold = workloads.CliCold(ROOT, 3, tmp_path)
    error_slot = cold.SLOTS.index("error")
    argv, _ = cold.inputs(error_slot)
    diagnostic = f"{argv[0]}: bad input\n".encode()
    cold.check(error_slot, workloads.ColdRun(1, b"", diagnostic))
    with pytest.raises(oracles.CheckFailed):
        cold.check(error_slot, workloads.ColdRun(1, b"[]\n", diagnostic))


def test_sweep_check_catches_changed_bytes(tmp_path):
    wl = workloads.CliSweep(ROOT, 5, tmp_path)
    records, payload = wl.execute(0)
    wl.check(0, (records, payload))
    wl.check(wl.cycle * 2, wl.execute(wl.cycle * 2))  # same slot, other route, same bytes
    with pytest.raises(oracles.CheckFailed):
        wl.check(0, (records, payload.replace(b'"command": "phase"', b'"command": "phasE"', 1)))


def test_oracle_is_the_exact_discrete_transport():
    import spinphase

    for spin in ("up", "down"):
        for theta in (0.3, 1.2, 2.9):
            loop = spinphase.spinor_loop(spinphase.Orientation(spin), theta, 64)
            value = spinphase.holonomy_numeric(loop).value
            assert oracles.circular_distance(
                value, oracles.latitude_transport(spin, theta, 64)) < 1e-12
    with pytest.raises(oracles.CheckFailed):
        oracles.check_loop_phase("up", 1.0, 20000,
                                 oracles.latitude_transport("up", 1.0, 20000) + 1e-8)


def test_tracing_keeps_output_bytes_and_restores_names():
    import spinphase.berry
    import spinphase.cli

    argv = ["sweep", "--cmd", "holonomy", "--param", "theta", "--start", "0.5", "--stop",
            "2.5", "--steps", "5", "--spin", "up", "--segments", "16"]
    plain = spinphase.cli.emit(spinphase.cli.run_records(argv), "json")
    original = spinphase.berry.spinor_loop
    tracer = tracing.Tracer()
    with tracer:
        traced = spinphase.cli.emit(spinphase.cli.run_records(argv), "json")
    assert traced == plain
    assert spinphase.berry.spinor_loop is original
    assert tracer.calls["berry.spinor_loop"] == 5
    assert tracer.counters["loop.states"] == 5 * 17
    assert tracer.calls["cli.argparse.parse"] == 6  # run_records, then one per point
    assert tracer.counters["cli.emit.records"] == 5


def test_benchmark_json_names_every_metric_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = [run.Op(0.2, True, False), run.Op(0.3, True, True)]
    e2e, _ = run.end_to_end(ops, [0.5], 2048)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in e2e.items()}

    class Stub:
        name = "cli_sweep"

    probe = {"python_bare_ms": 1.0, "numpy_ms": 1.0, "spinphase_ms": 1.0, "dispatch_ms": 1.0}
    layers, _ = run.layer_metrics(tracing.Tracer(), ops, Stub(), probe)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in layers.items()}


@pytest.mark.xfail(strict=True, raises=Exception,
                   reason="sweep re-parses grid values as argv, so '-3e-05' reads as a flag; "
                          "the cli_sweep delta_theta grids stay on one side of 0 until it is fixed")
def test_sweep_accepts_a_tiny_negative_grid_value():
    import spinphase.cli

    spec = spinphase.cli.SweepSpec("delta_theta", -3e-05, 0.2, 3)
    assert len(spinphase.cli.sweep("noise", spec, {"spin": "up", "theta": 1.0})) == 3
