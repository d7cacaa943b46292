"""Command-line surface: one subcommand per computation plus parameter sweeps.

Records are emitted as JSON (default) or CSV.  Identical invocations produce
byte-identical output.  Exit codes: 0 success, 1 domain error (bad physics
input), 2 usage error (bad flags).

Each command is one ``_COMMANDS`` entry (help, runner, flag specs).  The parser
is generated from it, and a sweep reads its fixed flags once by the same specs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from ._angles import TWO_PI, check_integer
from .berry import (
    berry_phase_analytic,
    berry_phase_entangled,
    connection,
    holonomy_numeric,
    spinor_loop,
)
from .circuits import Orientation, SpinorParams, format_circuit, parse_circuit, run_circuit
from .entangle import (
    BellCoefficients,
    BipartiteCoefficients,
    RgFlowParams,
    concurrence_general,
    entanglement_entropy,
    evolve_bell,
    monopole_strength_rg,
    monopole_strength_unclamped,
    swap_expectation,
)
from .errors import DomainError
from .noise import (
    NoiseSpec,
    NoiseTarget,
    entangled_noise_shift,
    noisy_phase,
    post_echo_noise_shift,
)
from .rabi import RabiParams, evolve_coefficients, spin_echo_ledger
from .states import ket

MAX_STEPS = 100_000  # grid points per sweep; each point holds one record


class _UsageError(Exception):
    """Bad flag combination caught after argparse; maps to exit code 2."""


@dataclass(frozen=True)
class RunRecord:
    """One completed computation: the command, its real inputs, real outputs,
    and string metadata (phase conventions, clamp flags, and the like)."""

    command: str
    inputs: dict[str, float]
    outputs: dict[str, float]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.outputs:
            raise DomainError("a record needs at least one output")
        for group in (self.inputs, self.outputs):
            for name, value in group.items():
                if not math.isfinite(value):
                    raise DomainError(f"record value {name} must be finite")

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": dict(sorted(self.outputs.items())),
            "metadata": dict(sorted(self.metadata.items())),
        }


@dataclass(frozen=True)
class SweepSpec:
    """Uniform inclusive grid over one named real parameter."""

    parameter: str
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        if self.parameter not in _SWEEPABLE:
            raise DomainError(f"parameter must be one of {sorted(_SWEEPABLE)}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise DomainError("start and stop must be finite")
        if not self.start < self.stop:
            raise DomainError("start must be below stop")
        check_integer(self.steps, "steps")
        if self.steps < 2:
            raise DomainError("steps must be at least 2")
        if self.steps > MAX_STEPS:
            raise DomainError(f"steps must be at most {MAX_STEPS}")


def _csv_real(value: float) -> str:
    return format(float(value), ".12g")


def emit(records: Sequence[RunRecord], format: str) -> bytes:
    """Serialize records to a byte stream, JSON by default or flat CSV.

    CSV columns are the sorted input names then the sorted output names, reals
    printed to 12 significant digits; JSON mirrors the records exactly.
    """
    if format == "json":
        payload = [r.as_dict() for r in records]
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    if format != "csv":
        raise DomainError(f"unknown format {format!r}")
    if not records:
        return b""
    in_names = sorted(records[0].inputs)
    out_names = sorted(records[0].outputs)
    for record in records[1:]:
        if sorted(record.inputs) != in_names or sorted(record.outputs) != out_names:
            raise DomainError("csv output needs records with a common shape")
    lines = [",".join(in_names + out_names)]
    for record in records:
        cells = [_csv_real(record.inputs[k]) for k in in_names]
        cells += [_csv_real(record.outputs[k]) for k in out_names]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# flag specs


def _complex_flag(text: str) -> complex:
    try:  # one or two reals; a third part is a TypeError
        return complex(*map(float, text.split(",")))
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}") from None


class _Flag(NamedTuple):
    """One command flag, named as typed after ``--``: ``type`` converts its text
    (``bool`` marks a bare switch), a flag without a default is required, and
    ``sweep`` names the sweep parameter that drives it."""

    name: str
    type: Callable[[str], object] = float
    default: object = None
    choices: tuple[str, ...] | None = None
    metavar: str | None = None
    help: str | None = None
    sweep: str | None = None

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


class _Command(NamedTuple):
    """A subcommand: help line, runner taking the flag dests as keywords, flags."""

    help: str
    run: Callable[..., list[RunRecord]]
    flags: tuple[_Flag, ...]


_SPIN = _Flag("spin", str, choices=("up", "down"))
_THETA = _Flag("theta", sweep="theta")
_COMPLEX = dict(type=_complex_flag, metavar="RE[,IM]")


def _re_im(**values: complex) -> dict[str, float]:
    """Each complex value as two record reals, name_re and name_im."""
    reals = {}
    for name, value in values.items():
        reals[f"{name}_re"], reals[f"{name}_im"] = value.real, value.imag
    return reals


# ---------------------------------------------------------------------------
# command runners


def _run_phase(spin: str, theta: float, degrees: bool) -> list[RunRecord]:
    orientation = Orientation(spin)
    theta = math.radians(theta) if degrees else theta
    gp = berry_phase_analytic(orientation, theta)
    return [RunRecord(
        command="phase",
        inputs={"theta": theta},
        outputs={
            "gamma": gp.value,
            "gamma_mod_2pi": gp.mod_2pi(),
            "connection": connection(orientation, theta),
        },
        metadata={"spin": spin, "phase_convention": "raw", "angle_unit": "radians"},
    )]


def _run_holonomy(spin: str, theta: float, segments: int) -> list[RunRecord]:
    orientation = Orientation(spin)
    loop = spinor_loop(orientation, theta, segments)
    transported = holonomy_numeric(loop)
    reference = berry_phase_analytic(orientation, theta)
    deviation = abs(transported.value - reference.mod_2pi())
    deviation = min(deviation, TWO_PI - deviation)  # circular distance
    return [RunRecord(
        command="holonomy",
        inputs={"theta": theta, "segments": float(segments)},
        outputs={
            "holonomy": transported.value,
            "gamma_analytic": reference.value,
            "deviation": deviation,
        },
        metadata={"spin": spin, "phase_convention": "mod2pi"},
    )]


def _run_circuit(file: str, theta: float, phi: float) -> list[RunRecord]:
    try:
        text = Path(file).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read circuit file: {exc}") from exc
    circuit = parse_circuit(text)
    state = run_circuit(circuit, {"theta": theta, "phi": phi}, ket("0"))
    a = state.amplitudes
    return [RunRecord(
        command="circuit",
        inputs={"theta": theta, "phi": phi},
        outputs=_re_im(amp0=a[0], amp1=a[1]),
        metadata={"circuit": format_circuit(circuit), "phase_convention": "none"},
    )]


def _run_rabi(omega: float, t: float, c0: complex, c1: complex) -> list[RunRecord]:
    params = RabiParams(omega0=0.0, omega=omega, duration=t)
    c0_out, c1_out = evolve_coefficients(c0, c1, params)
    return [RunRecord(
        command="rabi",
        inputs={"omega": omega, "t": t, **_re_im(c0=c0, c1=c1)},
        outputs=_re_im(c0_out=c0_out, c1_out=c1_out),
        metadata={"phase_convention": "none"},
    )]


def _run_echo(phi: float, chi: float) -> list[RunRecord]:
    ledger = spin_echo_ledger(SpinorParams(theta=math.pi, phi=phi, chi=chi))
    return [RunRecord(
        command="echo",
        inputs={"phi": phi, "chi": chi},
        outputs={
            "geometric": ledger.geometric,
            "dynamical": ledger.dynamical,
            "total": ledger.total,
            "geometric_magnitude": abs(ledger.geometric),
        },
        metadata={"phase_convention": "raw_signed"},
    )]


def _run_entangle(theta: float, alpha: complex, beta: complex) -> list[RunRecord]:
    state, relative_phase = evolve_bell(BellCoefficients(alpha, beta), theta)
    conc = concurrence_general(BipartiteCoefficients.from_state(state))
    conc_norm = min(abs(conc), 1.0)  # guard the last-ulp overshoot
    a = state.amplitudes
    return [RunRecord(
        command="entangle",
        inputs={"theta": theta, **_re_im(alpha=alpha, beta=beta)},
        outputs={
            **_re_im(amp00=a[0], amp01=a[1], amp10=a[2], amp11=a[3]),
            "relative_phase": relative_phase,
            "swap_expectation": swap_expectation(state),
            "concurrence_norm": conc_norm,
            "entropy_bits": entanglement_entropy(conc_norm),
            "gamma_ent": berry_phase_entangled(theta).value,
        },
        metadata={"phase_convention": "gamma_ent=raw,relative_phase=mod2pi"},
    )]


def _run_noise(spin: str, theta: float, delta_theta: float) -> list[RunRecord]:
    target = NoiseTarget(spin)
    spec = NoiseSpec(delta_theta, target)
    metadata = {"spin": spin, "phase_convention": "raw"}
    if target is NoiseTarget.ENTANGLED:
        outputs = {
            "entangled_shift": entangled_noise_shift(theta, spec),
            "post_echo_shift": post_echo_noise_shift(theta, spec),
        }
        metadata["post_echo_comparison"] = "qualitative"
    else:
        gp, shift = noisy_phase(Orientation(spin), theta, spec)
        outputs = {"gamma_noisy": gp.value, "shift": shift}
    return [RunRecord(
        command="noise",
        inputs={"theta": theta, "delta_theta": delta_theta},
        outputs=outputs,
        metadata=metadata,
    )]


def _run_rgflow(a: float, c: float, separation: float) -> list[RunRecord]:
    params = RgFlowParams(a, c, separation)
    return [RunRecord(
        command="rgflow",
        inputs={"a": a, "c": c, "separation": separation},
        outputs={"mu": monopole_strength_rg(params)},
        metadata={
            "mu_clamped": "true" if monopole_strength_unclamped(params) < 0.0 else "false",
            "phase_convention": "none",
        },
    )]


def _run_sweep(cmd: str, param: str, start: float, stop: float, steps: int,
               **fixed: object) -> list[RunRecord]:
    try:
        spec = SweepSpec(param, start, stop, steps)
    except DomainError as exc:
        raise _UsageError(str(exc)) from exc
    return _sweep(cmd, spec, {dest.replace("_", "-"): value for dest, value in fixed.items()})


_COMMANDS = {
    "phase": _Command("analytic closed-loop phase of one spinor", _run_phase, (
        _SPIN, _THETA, _Flag("degrees", bool, False, help="read --theta in degrees"))),
    "holonomy": _Command("discrete loop-transport phase against the analytic value",
                         _run_holonomy, (_SPIN, _THETA, _Flag("segments", int, 20000))),
    "circuit": _Command("run a circuit file on |0>", _run_circuit, (
        _Flag("file", str, metavar="PATH"), _Flag("theta", default=0.0, sweep="theta"),
        _Flag("phi", default=0.0))),
    "rabi": _Command("resonant coefficient evolution", _run_rabi, (
        _Flag("omega"), _Flag("t", sweep="omega_t"),
        _Flag("c0", **_COMPLEX), _Flag("c1", **_COMPLEX))),
    "echo": _Command("two-pulse echo phase ledger", _run_echo, (_Flag("phi"), _Flag("chi"))),
    "entangle": _Command("Bell-state evolution under one spinor loop", _run_entangle, (
        _THETA, _Flag("alpha", **_COMPLEX), _Flag("beta", **_COMPLEX))),
    "noise": _Command("first-order phase shifts from polar-angle noise", _run_noise, (
        _Flag("spin", str, choices=("up", "down", "entangled")), _THETA,
        _Flag("delta-theta", sweep="delta_theta"))),
    "rgflow": _Command("monopole strength under the length-scale flow", _run_rgflow, (
        _Flag("a"), _Flag("c"), _Flag("separation", sweep="separation"))),
}
_SWEEP_TARGETS = sorted(_COMMANDS)
_TARGET_FLAGS = {f.name: f for command in _COMMANDS.values() for f in command.flags}
# sweep parameter -> a flag it drives
_SWEEPABLE = {f.sweep: f for f in _TARGET_FLAGS.values() if f.sweep}
_COMMANDS["sweep"] = _Command("run another command over a uniform parameter grid", _run_sweep, (
    _Flag("cmd", str, metavar="COMMAND"), _Flag("param", str, choices=tuple(sorted(_SWEEPABLE))),
    _Flag("start"), _Flag("stop"), _Flag("steps", int),
    # the target's flags, kept as given and read later by the target's own specs
    *(_Flag(f.name, bool if f.type is bool else str, argparse.SUPPRESS, help=argparse.SUPPRESS)
      for f in _TARGET_FLAGS.values())))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinphase",
        description="Geometric phases of driven spin-1/2 systems, from the command line.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--output", default=None, metavar="PATH")
        for flag in command.flags:
            kind = dict(action="store_true") if flag.type is bool else dict(
                type=flag.type, required=flag.default is None, choices=flag.choices,
                metavar=flag.metavar)
            p.add_argument(f"--{flag.name}", default=flag.default, help=flag.help, **kind)
    return parser


# ---------------------------------------------------------------------------
# sweeps


def _sweep(name: str, spec: SweepSpec, fixed: Mapping[str, object]) -> list[RunRecord]:
    if name not in _SWEEP_TARGETS:
        raise _UsageError(f"--cmd must be one of {_SWEEP_TARGETS}")
    command = _COMMANDS[name]
    flags = {flag.name: flag for flag in command.flags}
    kwargs = {f.dest: f.default for f in command.flags if f.default is not None}
    for key, value in fixed.items():
        key = key.removeprefix("--")
        if value is False or value is None:
            continue
        if key not in flags:
            raise _UsageError(f"unrecognized arguments: --{key} {value}")
        flag = flags[key]
        try:  # read once, from the value's text, as on the command line
            if (value is True) != (flag.type is bool):
                raise ValueError(value)
            kwargs[flag.dest] = value if value is True else flag.type(str(value))
            if flag.choices and kwargs[flag.dest] not in flag.choices:
                raise ValueError(value)
        except (ValueError, argparse.ArgumentTypeError):
            raise _UsageError(f"fixed flags do not fit {name}: --{key} {value}") from None
    swept = next((f for f in command.flags if f.sweep == spec.parameter), None)
    missing = [f"--{f.name}" for f in command.flags if f.dest not in kwargs and f is not swept]
    if missing:
        raise _UsageError(f"fixed flags do not fit {name}: missing {', '.join(missing)}")
    if swept is None:
        flag = _SWEEPABLE[spec.parameter].name
        raise _UsageError(f"unrecognized arguments: --{flag} {float(spec.start)!r}")
    records: list[RunRecord] = []
    for value in np.linspace(spec.start, spec.stop, spec.steps):
        kwargs[swept.dest] = value = float(value)
        try:
            produced = command.run(**kwargs)
        except DomainError as exc:
            raise DomainError(f"at {spec.parameter}={value!r}: {exc}") from exc
        records += [replace(r, metadata={**r.metadata, "swept": spec.parameter}) for r in produced]
    return records


def sweep(subcommand: str, spec: SweepSpec, fixed: Mapping[str, object]) -> list[RunRecord]:
    """Run one subcommand over the grid, one record per point, in grid order.

    fixed supplies the non-swept flags by their dashed names (leading dashes
    optional).  Each value is read once by its flag's converter, from its text
    as on the command line; True/False switch bare flags on and off.
    """
    try:
        return _sweep(subcommand, spec, fixed)
    except _UsageError as exc:
        raise DomainError(str(exc)) from exc


# ---------------------------------------------------------------------------
# entry points


def _run(args: argparse.Namespace, extras: list[str]) -> list[RunRecord]:
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    command = _COMMANDS[args.command]
    return command.run(**{f.dest: getattr(args, f.dest) for f in command.flags
                          if hasattr(args, f.dest)})


def run_records(argv: Sequence[str]) -> list[RunRecord]:
    """Parse argv and build the records, without serializing or exiting.

    Raises SystemExit (from argparse), _UsageError, or DomainError; mainly a
    seam for tests and for callers who want records rather than bytes.
    """
    return _run(*_build_parser().parse_known_args(list(argv)))


def dispatch(argv: Sequence[str]) -> int:
    """Run one invocation; returns the process exit code instead of exiting."""
    try:
        args, extras = _build_parser().parse_known_args(list(argv))
        payload = emit(_run(args, extras), args.format)
        if args.output:
            try:
                Path(args.output).write_bytes(payload)
            except OSError as exc:
                raise DomainError(f"cannot write output file: {exc}") from exc
        else:
            sys.stdout.write(payload.decode("utf-8"))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except _UsageError as exc:
        print(f"spinphase: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        command = argv[0] if argv else "spinphase"
        print(f"{command}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))
