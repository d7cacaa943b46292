"""The three workloads: seeded inputs, one timed op, and that op's output check.

A workload's ``execute(i)`` is the timed part of op i and returns what the
program produced; ``check(i, out)`` runs after the timer stops and raises on a
wrong output.  Inputs depend only on (seed, i), so runs with one seed see the
same inputs.  Ops rotate through a fixed cycle of ``cycle`` slots; a run
measures whole cycles, so every run mixes the slots in the same proportions.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import oracles
from oracles import CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
COLD_ENTRY = "from spinphase.cli import main; main()"
TRACE_PREFIX = b"perfbench-trace "


def op_rng(workload: str, seed: int, i: int) -> random.Random:
    """Generator for op i's inputs; string seeds hash the same on every platform."""
    return random.Random(f"{workload}:{seed}:{i}")


def away_from_half_pi(rng: random.Random) -> float:
    # the antisymmetric family vanishes at theta = pi/2
    low = rng.uniform(0.05, math.pi / 2 - 0.2)
    return low if rng.random() < 0.5 else math.pi - low


# ---------------------------------------------------------------------------
# loop_transport


class LoopTransport:
    """One closed loop built and transported through the library per op."""

    name = "loop_transport"
    cycle = 8  # seven 20000-segment spinor loops, then one entangled-family loop
    SEGMENTS = 20000
    ENTANGLED_SEGMENTS = 2000

    def __init__(self, root: Path, seed: int, workdir: Path):
        import spinphase

        self.sp = spinphase
        self.seed = seed
        self.tracer = None

    def inputs(self, i: int) -> tuple:
        rng = op_rng(self.name, self.seed, i)
        if i % self.cycle == self.cycle - 1:
            return ("entangled", None, away_from_half_pi(rng), self.ENTANGLED_SEGMENTS)
        spin = rng.choice(("up", "down"))
        return ("spinor", spin, rng.uniform(0.05, math.pi - 0.05), self.SEGMENTS)

    def execute(self, i: int):
        kind, spin, theta, segments = self.inputs(i)
        sp = self.sp
        if kind == "entangled":
            return sp.holonomy_numeric(sp.entangled_family_loop(theta, segments))
        return sp.holonomy_numeric(sp.spinor_loop(sp.Orientation(spin), theta, segments))

    def check(self, i: int, out) -> None:
        kind, spin, theta, segments = self.inputs(i)
        if kind == "entangled":
            oracles.check_entangled_phase(out.value)
        else:
            oracles.check_loop_phase(spin, theta, segments, out.value)


# ---------------------------------------------------------------------------
# cli_sweep


@dataclass
class SweepCase:
    cmd: str
    param: str
    start: float
    stop: float
    fixed: dict  # flag name -> value, for the library route
    context: dict = field(default_factory=dict)

    def fixed_argv(self) -> list[str]:
        out = []
        for name, value in self.fixed.items():
            out += [f"--{name}", repr(value) if isinstance(value, float) else str(value)]
        return out


SWEPT_INPUT = {"theta": "theta", "delta_theta": "delta_theta", "omega_t": "t",
               "separation": "separation"}


def _unit_pair(rng: random.Random) -> tuple[str, str]:
    """Two complex flags 're,im' of unit joint norm, real parts positive."""
    a, b, c = rng.uniform(0.2, 1.3), rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)
    z0 = math.cos(a) * complex(math.cos(b), math.sin(b))
    z1 = math.sin(a) * complex(math.cos(c), math.sin(c))
    return f"{z0.real!r},{z0.imag!r}", f"{z1.real!r},{z1.imag!r}"


def sweep_cases(seed: int, circuit_files: dict) -> dict[str, SweepCase]:
    """One seeded case per sweepable command; a run repeats each case every cycle."""
    rng = random.Random(f"cli_sweep:{seed}")
    spin = rng.choice(("up", "down"))
    c0, c1 = _unit_pair(rng)
    alpha, beta = _unit_pair(rng)
    text = rng.choice(sorted(oracles.CIRCUITS))
    hol_spin = rng.choice(("up", "down"))
    # delta_theta grids stay on one side of 0: a negative grid value printed
    # with an exponent (|x| < 1e-4) is re-parsed by the sweep as a flag
    near, far = rng.uniform(0.01, 0.05), rng.uniform(0.3, 0.45)
    delta_grid = rng.choice(((near, far), (-far, -near)))
    return {
        "phase": SweepCase("phase", "theta", rng.uniform(0.0, 0.4), rng.uniform(2.7, math.pi),
                           {"spin": spin}, {"spin": spin}),
        "noise_up": SweepCase("noise", "delta_theta", *delta_grid,
                              {"spin": "up", "theta": rng.uniform(0.3, 2.8)}, {"spin": "up"}),
        "noise_entangled": SweepCase("noise", "theta", rng.uniform(0.0, 0.4),
                                     rng.uniform(2.7, math.pi),
                                     {"spin": "entangled",
                                      "delta-theta": rng.uniform(0.01, 0.3)},
                                     {"spin": "entangled"}),
        "rabi": SweepCase("rabi", "omega_t", rng.uniform(0.0, 0.5), rng.uniform(5.0, 10.0),
                          {"omega": rng.uniform(0.5, 2.0), "c0": c0, "c1": c1}),
        "entangle": SweepCase("entangle", "theta", rng.uniform(0.0, 0.3),
                              rng.uniform(2.8, math.pi), {"alpha": alpha, "beta": beta}),
        "rgflow": SweepCase("rgflow", "separation", rng.uniform(0.2, 0.8),
                            rng.uniform(3.0, 12.0),
                            {"a": rng.uniform(0.1, 0.6), "c": rng.uniform(0.5, 1.5)}),
        "circuit": SweepCase("circuit", "theta", rng.uniform(0.0, 0.5), rng.uniform(2.5, 3.0),
                             {"file": str(circuit_files[text]), "phi": rng.uniform(0.1, 3.0)},
                             {"circuit": text}),
        "holonomy": SweepCase("holonomy", "theta", rng.uniform(0.05, 0.3),
                              rng.uniform(2.8, math.pi - 0.05),
                              {"spin": hol_spin, "segments": 64}, {"spin": hol_spin}),
    }


def write_circuit_files(workdir: Path) -> dict[str, Path]:
    files = {}
    for k, text in enumerate(sorted(oracles.CIRCUITS)):
        path = workdir / f"circuit{k}.circ"
        path.write_text(f"# bench circuit {k}\n{text}\n", encoding="utf-8")
        files[text] = path
    return files


def csv_rows(payload: bytes) -> tuple[list[str], list[dict]]:
    lines = payload.decode("utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def check_records(command: str, rows: list[tuple[dict, dict]], context: dict,
                  indices) -> None:
    for k in indices:
        inputs, outputs = rows[k]
        oracles.check_record(command, inputs, outputs, context)


class CliSweep:
    """One 1000-point sweep run in-process and serialized per op."""

    name = "cli_sweep"
    STEPS = 1000
    SAMPLE = 16  # grid points per op checked against closed forms
    # 8 JSON slots then 7 CSV slots; the slow 64-segment holonomy sweep is 1 op
    # in 15.  Routes alternate op by op and flip every second cycle, so each
    # slot meets both routes and a traced cycle repeats the untraced one before it.
    SLOTS = tuple((k, "json") for k in ("phase", "noise_up", "noise_entangled", "rabi",
                                        "entangle", "rgflow", "circuit", "holonomy")) + \
        tuple((k, "csv") for k in ("phase", "noise_up", "noise_entangled", "rabi",
                                   "entangle", "rgflow", "circuit"))
    cycle = len(SLOTS)

    def __init__(self, root: Path, seed: int, workdir: Path):
        import spinphase.cli

        self.cli = spinphase.cli
        self.seed = seed
        self.tracer = None
        self.cases = sweep_cases(seed, write_circuit_files(workdir))
        self.digests: dict[tuple[str, str], str] = {}

    def execute(self, i: int):
        kind, fmt = self.SLOTS[i % self.cycle]
        case = self.cases[kind]
        cli = self.cli
        if (i % self.cycle + i // (2 * self.cycle)) % 2 == 0:
            records = cli.run_records(
                ["sweep", "--cmd", case.cmd, "--param", case.param, "--start",
                 repr(case.start), "--stop", repr(case.stop), "--steps", str(self.STEPS),
                 *case.fixed_argv()])
        else:
            spec = cli.SweepSpec(case.param, case.start, case.stop, self.STEPS)
            records = cli.sweep(case.cmd, spec, case.fixed)
        return records, cli.emit(records, fmt)

    def check(self, i: int, out) -> None:
        records, payload = out
        kind, fmt = self.SLOTS[i % self.cycle]
        case = self.cases[kind]
        if len(records) != self.STEPS:
            raise CheckFailed(f"{len(records)} records for {self.STEPS} steps")
        if fmt == "json":
            parsed = json.loads(payload)
            if parsed != [r.as_dict() for r in records]:
                raise CheckFailed("JSON does not re-parse to the records")
            rows = [(p["inputs"], p["outputs"]) for p in parsed]
            if any(p["command"] != case.cmd or p["metadata"].get("swept") != case.param
                   for p in parsed):
                raise CheckFailed("record command or swept tag is wrong")
        else:
            header, table = csv_rows(payload)
            first = records[0]
            if header != sorted(first.inputs) + sorted(first.outputs):
                raise CheckFailed(f"CSV header {header}")
            if len(table) != self.STEPS:
                raise CheckFailed(f"{len(table)} CSV rows for {self.STEPS} steps")
            rows = [(row, row) for row in table]
        rng = op_rng(self.name, self.seed, i)
        sample = {0, self.STEPS - 1, *rng.sample(range(self.STEPS), self.SAMPLE - 2)}
        swept = SWEPT_INPUT[case.param]
        span = case.stop - case.start
        for k in sample:
            grid = case.start + span * k / (self.STEPS - 1)
            if abs(rows[k][0][swept] - grid) > 1e-9 * max(1.0, abs(grid)):
                raise CheckFailed(f"grid point {k}: {rows[k][0][swept]!r} vs {grid!r}")
        check_records(case.cmd, rows, case.context, sorted(sample))
        digest = hashlib.sha256(payload).hexdigest()
        if self.digests.setdefault((kind, fmt), digest) != digest:
            raise CheckFailed(f"{kind}/{fmt}: same spec, different bytes")


# ---------------------------------------------------------------------------
# cli_cold


def _flag(name: str, value: float) -> str:
    # the --flag=value form keeps negative values from reading as flags
    return f"--{name}={value!r}"


@dataclass
class ColdRun:
    returncode: int
    stdout: bytes
    stderr: bytes


class CliCold:
    """One fresh interpreter running the real console entry point per op."""

    name = "cli_cold"
    # eight computing subcommands, a small sweep, and one deliberate domain error
    SLOTS = ("phase", "holonomy", "circuit", "rabi", "echo", "entangle", "noise",
             "rgflow", "sweep", "error")
    cycle = len(SLOTS)
    SWEEP_STEPS = 25

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.seed = seed
        self.tracer = None
        self.stages: list[dict] = []  # per traced child: numpy/spinphase/dispatch ms
        self.circuit_files = write_circuit_files(workdir)
        self.env = dict(os.environ, PYTHONPATH="src")

    def inputs(self, i: int) -> tuple[list[str], dict]:
        """argv for op i and the context its records are checked with."""
        rng = op_rng(self.name, self.seed, i)
        slot = self.SLOTS[i % self.cycle]
        # formats flip every second cycle, so traced and untraced cycles pair up
        fmt = ["--format", "json" if (i // (2 * self.cycle)) % 2 == 0 else "csv"]
        u = rng.uniform
        if slot == "phase":
            spin = rng.choice(("up", "down"))
            if rng.random() < 0.5:
                return ["phase", "--spin", spin, _flag("theta", u(0.0, 180.0)), "--degrees",
                        *fmt], {"spin": spin}
            return ["phase", "--spin", spin, _flag("theta", u(0.0, math.pi)), *fmt], {"spin": spin}
        if slot == "holonomy":
            spin = rng.choice(("up", "down"))
            return ["holonomy", "--spin", spin, _flag("theta", u(0.05, math.pi - 0.05)),
                    "--segments", str(rng.randint(500, 2000)), *fmt], {"spin": spin}
        if slot == "circuit":
            text = rng.choice(sorted(oracles.CIRCUITS))
            return ["circuit", "--file", str(self.circuit_files[text]),
                    _flag("theta", u(-3.0, 3.0)), _flag("phi", u(-3.0, 3.0)), *fmt], \
                {"circuit": text}
        if slot == "rabi":
            c0, c1 = _unit_pair(rng)
            return ["rabi", _flag("omega", u(0.5, 2.0)), _flag("t", u(0.0, 10.0)),
                    f"--c0={c0}", f"--c1={c1}", *fmt], {}
        if slot == "echo":
            return ["echo", _flag("phi", u(-math.pi, math.pi)),
                    _flag("chi", u(-math.pi, math.pi)), *fmt], {}
        if slot == "entangle":
            alpha, beta = _unit_pair(rng)
            return ["entangle", _flag("theta", u(0.0, math.pi)), f"--alpha={alpha}",
                    f"--beta={beta}", *fmt], {}
        if slot == "noise":
            spin = rng.choice(("up", "down", "entangled"))
            return ["noise", "--spin", spin, _flag("theta", u(0.0, math.pi)),
                    _flag("delta-theta", u(-0.45, 0.45)), *fmt], {"spin": spin}
        if slot == "rgflow":
            return ["rgflow", _flag("a", u(0.0, 0.6)), _flag("c", u(0.5, 1.5)),
                    _flag("separation", u(0.2, 12.0)), *fmt], {}
        if slot == "sweep":
            spin = rng.choice(("up", "down"))
            return ["sweep", "--cmd", "phase", "--param", "theta",
                    _flag("start", u(0.0, 1.0)), _flag("stop", u(2.0, math.pi)),
                    "--steps", str(self.SWEEP_STEPS), "--spin", spin, *fmt], {"spin": spin}
        bad = rng.choice((
            ["phase", "--spin", "up", _flag("theta", u(3.3, 6.0))],
            ["holonomy", "--spin", "down", _flag("theta", u(0.1, 3.0)), "--segments", "1"],
            ["noise", "--spin", "up", _flag("theta", u(0.1, 3.0)),
             _flag("delta-theta", u(0.6, 2.0))],
            ["rgflow", _flag("a", 0.3), _flag("c", 1.0), _flag("separation", -u(0.1, 2.0))],
            ["rabi", _flag("omega", 1.0), _flag("t", 1.0), "--c0=0.9", "--c1=0.9"],
            ["entangle", _flag("theta", -u(0.1, 1.0)), "--alpha=0.6", "--beta=0.8"],
        ))
        return bad, {"error": True}

    def execute(self, i: int) -> ColdRun:
        argv, _ = self.inputs(i)
        if self.tracer is None:
            cmd = [sys.executable, "-c", COLD_ENTRY, *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cold_child.py"), *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              timeout=120)
        stderr = proc.stderr
        if self.tracer is not None:
            stderr, _, line = stderr.rpartition(TRACE_PREFIX)
            report = json.loads(line)
            self.tracer.merge(report.pop("table"))
            self.stages.append(report)
        return ColdRun(proc.returncode, proc.stdout, stderr)

    def check(self, i: int, out: ColdRun) -> None:
        argv, context = self.inputs(i)
        if context.get("error"):
            lines = out.stderr.decode("utf-8").splitlines()
            if out.returncode != 1 or out.stdout or len(lines) != 1 \
                    or not lines[0].startswith(f"{argv[0]}: "):
                raise CheckFailed(f"domain error run: exit {out.returncode}, "
                                  f"stdout {out.stdout[:60]!r}, stderr {out.stderr[:120]!r}")
            return
        if out.returncode != 0 or out.stderr:
            raise CheckFailed(f"exit {out.returncode}, stderr {out.stderr[:200]!r}")
        command = argv[0]
        if command == "sweep":
            command = argv[argv.index("--cmd") + 1]
        if "csv" in argv:
            _, table = csv_rows(out.stdout)
            rows = [(row, row) for row in table]
        else:
            parsed = json.loads(out.stdout)
            if any(p["command"] != command for p in parsed):
                raise CheckFailed("record command is wrong")
            rows = [(p["inputs"], p["outputs"]) for p in parsed]
        expected = self.SWEEP_STEPS if argv[0] == "sweep" else 1
        if len(rows) != expected:
            raise CheckFailed(f"{len(rows)} records, expected {expected}")
        check_records(command, rows, context, range(len(rows)))


WORKLOADS = {w.name: w for w in (LoopTransport, CliSweep, CliCold)}

