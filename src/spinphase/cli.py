"""Command-line surface: one subcommand per computation plus parameter sweeps.

Records are emitted as JSON (default) or CSV.  Identical invocations produce
byte-identical output.  Exit codes: 0 success, 1 domain error (bad physics
input), 2 usage error (bad flags).

Each command is one ``_COMMANDS`` entry (help, loader, flag specs).  The parser
is generated from it, and a sweep reads its fixed flags once by the same specs.
A loader imports the modules its command computes with and returns the runner,
once per invocation, so a call loads only what its own command needs.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from ._angles import TWO_PI, Frozen, check_integer
from .errors import DomainError

if TYPE_CHECKING:
    from .circuits import Circuit

MAX_STEPS = 100_000  # grid points per sweep; each point holds one record


class _UsageError(Exception):
    """Bad flag combination caught after argparse; maps to exit code 2."""


class RunRecord(Frozen):
    """One completed computation: the command, its real inputs, real outputs,
    and string metadata (phase conventions, clamp flags, and the like).

    Values are checked when the record is built: the command a str, inputs and
    outputs str keys to finite floats (``np.float64`` included), metadata str
    keys to str values, so every record emits as valid JSON.  The dicts stay
    mutable; a sweep tags each record's metadata after the fact.
    """

    __slots__ = ("command", "inputs", "outputs", "metadata")

    def __init__(self, command: str, inputs: dict[str, float], outputs: dict[str, float],
                 metadata: dict[str, str] | None = None) -> None:
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "metadata", {} if metadata is None else metadata)
        if not isinstance(command, str):
            raise DomainError(f"record command {command!r} must be str")
        if not outputs:
            raise DomainError("a record needs at least one output")
        for group in (inputs, outputs):
            for name, value in group.items():
                if not (isinstance(name, str) and isinstance(value, float)):
                    raise DomainError(f"record value {name!r}: {value!r} must be str: float")
                if not math.isfinite(value):
                    raise DomainError(f"record value {name} must be finite")
        for name, value in self.metadata.items():
            if not (isinstance(name, str) and isinstance(value, str)):
                raise DomainError(f"record metadata {name!r}: {value!r} must be str: str")

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": dict(sorted(self.outputs.items())),
            "metadata": dict(sorted(self.metadata.items())),
        }


class SweepSpec(Frozen):
    """Uniform inclusive grid over one named real parameter."""

    __slots__ = ("parameter", "start", "stop", "steps")

    def __init__(self, parameter: str, start: float, stop: float, steps: int) -> None:
        object.__setattr__(self, "parameter", parameter)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "steps", steps)
        if parameter not in _SWEEPABLE:
            raise DomainError(f"parameter must be one of {sorted(_SWEEPABLE)}")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise DomainError("start and stop must be finite")
        if not start < stop:
            raise DomainError("start must be below stop")
        check_integer(steps, "steps")
        if steps < 2:
            raise DomainError("steps must be at least 2")
        if steps > MAX_STEPS:
            raise DomainError(f"steps must be at most {MAX_STEPS}")


def _csv_real(value: float) -> str:
    return format(float(value), ".12g")


def _json_group(group: Mapping[str, str | float]) -> str:
    """A record's inputs, outputs or metadata as json lays it out two levels deep."""
    members = []
    for key, value in sorted(group.items()):
        # float.__repr__ is json's own float text, for float subclasses too
        text = encode_basestring_ascii(value) if isinstance(value, str) else float.__repr__(value)
        members.append(f"      {encode_basestring_ascii(key)}: {text}")
    return "{\n" + ",\n".join(members) + "\n    }" if members else "{}"


def _json_record(record: RunRecord) -> str:
    """One record as it reads inside json.dumps([...], indent=2, sort_keys=True)."""
    inputs, outputs, metadata = map(_json_group, (record.inputs, record.outputs,
                                                  record.metadata))
    return (f'  {{\n    "command": {encode_basestring_ascii(record.command)},\n'
            f'    "inputs": {inputs},\n    "metadata": {metadata},\n'
            f'    "outputs": {outputs}\n  }}')


def emit(records: Sequence[RunRecord], format: str) -> bytes:
    """Serialize records to a byte stream, JSON by default or flat CSV.

    CSV columns are the sorted input names then the sorted output names, reals
    printed to 12 significant digits.  JSON mirrors the records exactly, with
    the bytes of json.dumps(indent=2, sort_keys=True) plus a newline.
    """
    if format == "json":
        body = ",\n".join(map(_json_record, records))
        return (f"[\n{body}\n]\n" if body else "[]\n").encode("utf-8")
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
    """A subcommand: help line, loader and flags.  The loader imports what the
    command computes with and returns its runner, which takes the flag dests
    as keywords."""

    help: str
    load: Callable[[], Callable[..., list[RunRecord]]]
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
# command loaders: each imports its command's modules and returns the runner


def _phase():
    from .phases import Orientation, berry_phase_analytic, connection

    def run(spin: str, theta: float, degrees: bool) -> list[RunRecord]:
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
    return run


def _holonomy():
    from .berry import holonomy_numeric, spinor_loop  # numpy loads here, for loops only
    from .phases import Orientation, berry_phase_analytic

    def run(spin: str, theta: float, segments: int) -> list[RunRecord]:
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
    return run


class _CircuitFile:
    """A ``--file`` value: the path, and the circuit in it, read on first use.

    One value serves one invocation (a sweep reads its fixed flags once), so the
    file is read, parsed and formatted once however many grid points run it,
    and a missing or bad file is still a domain error at the first point.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    @cached_property
    def loaded(self) -> tuple[Circuit, str]:
        """The parsed circuit and its canonical text."""
        from .circuits import format_circuit, parse_circuit

        try:
            text = Path(self.path).read_text(encoding="utf-8")
        except OSError as exc:
            raise DomainError(f"cannot read circuit file: {exc}") from exc
        circuit = parse_circuit(text)
        return circuit, format_circuit(circuit)


def _circuit():
    from .circuits import run_circuit
    from .states import ket

    def run(file: _CircuitFile, theta: float, phi: float) -> list[RunRecord]:
        circuit, text = file.loaded
        state = run_circuit(circuit, {"theta": theta, "phi": phi}, ket("0"))
        a = state.amplitudes
        return [RunRecord(
            command="circuit",
            inputs={"theta": theta, "phi": phi},
            outputs=_re_im(amp0=a[0], amp1=a[1]),
            metadata={"circuit": text, "phase_convention": "none"},
        )]
    return run


def _rabi():
    from .rabi import RabiParams, evolve_coefficients

    def run(omega: float, t: float, c0: complex, c1: complex) -> list[RunRecord]:
        params = RabiParams(omega0=0.0, omega=omega, duration=t)
        c0_out, c1_out = evolve_coefficients(c0, c1, params)
        return [RunRecord(
            command="rabi",
            inputs={"omega": omega, "t": t, **_re_im(c0=c0, c1=c1)},
            outputs=_re_im(c0_out=c0_out, c1_out=c1_out),
            metadata={"phase_convention": "none"},
        )]
    return run


def _echo():
    from .phases import SpinorParams
    from .rabi import spin_echo_ledger

    def run(phi: float, chi: float) -> list[RunRecord]:
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
    return run


def _entangle():
    from .entangle import (
        BellCoefficients,
        BipartiteCoefficients,
        concurrence_general,
        entanglement_entropy,
        evolve_bell,
        swap_expectation,
    )
    from .phases import berry_phase_entangled

    def run(theta: float, alpha: complex, beta: complex) -> list[RunRecord]:
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
    return run


def _noise():
    from .noise import (
        NoiseSpec,
        NoiseTarget,
        entangled_noise_shift,
        noisy_phase,
        post_echo_noise_shift,
    )
    from .phases import Orientation

    def run(spin: str, theta: float, delta_theta: float) -> list[RunRecord]:
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
    return run


def _rgflow():
    from .entangle import RgFlowParams, monopole_strength_rg, monopole_strength_unclamped

    def run(a: float, c: float, separation: float) -> list[RunRecord]:
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
    return run


def _run_sweep(cmd: str, param: str, start: float, stop: float, steps: int,
               **fixed: object) -> list[RunRecord]:
    try:
        spec = SweepSpec(param, start, stop, steps)
    except DomainError as exc:
        raise _UsageError(str(exc)) from exc
    return _sweep(cmd, spec, {dest.replace("_", "-"): value for dest, value in fixed.items()})


_COMMANDS = {
    "phase": _Command("analytic closed-loop phase of one spinor", _phase, (
        _SPIN, _THETA, _Flag("degrees", bool, False, help="read --theta in degrees"))),
    "holonomy": _Command("discrete loop-transport phase against the analytic value",
                         _holonomy, (_SPIN, _THETA, _Flag("segments", int, 20000))),
    "circuit": _Command("run a circuit file on |0>", _circuit, (
        _Flag("file", _CircuitFile, metavar="PATH"), _Flag("theta", default=0.0, sweep="theta"),
        _Flag("phi", default=0.0))),
    "rabi": _Command("resonant coefficient evolution", _rabi, (
        _Flag("omega"), _Flag("t", sweep="omega_t"),
        _Flag("c0", **_COMPLEX), _Flag("c1", **_COMPLEX))),
    "echo": _Command("two-pulse echo phase ledger", _echo, (_Flag("phi"), _Flag("chi"))),
    "entangle": _Command("Bell-state evolution under one spinor loop", _entangle, (
        _THETA, _Flag("alpha", **_COMPLEX), _Flag("beta", **_COMPLEX))),
    "noise": _Command("first-order phase shifts from polar-angle noise", _noise, (
        _Flag("spin", str, choices=("up", "down", "entangled")), _THETA,
        _Flag("delta-theta", sweep="delta_theta"))),
    "rgflow": _Command("monopole strength under the length-scale flow", _rgflow, (
        _Flag("a"), _Flag("c"), _Flag("separation", sweep="separation"))),
}
_SWEEP_TARGETS = sorted(_COMMANDS)
_TARGET_FLAGS = {f.name: f for command in _COMMANDS.values() for f in command.flags}
# sweep parameter -> a flag it drives
_SWEEPABLE = {f.sweep: f for f in _TARGET_FLAGS.values() if f.sweep}
_COMMANDS["sweep"] = _Command("run another command over a uniform parameter grid",
                              lambda: _run_sweep, (
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


def _grid(spec: SweepSpec) -> list[float]:
    """The sweep's grid as floats, with the bits of np.linspace(start, stop, steps)."""
    start, stop = float(spec.start), float(spec.stop)
    div = spec.steps - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:  # delta / div underflowed: linspace then scales by delta last
        return [start + i / div * delta for i in range(div)] + [stop]
    return [start + i * step for i in range(div)] + [stop]


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
    run = command.load()
    records: list[RunRecord] = []
    for value in _grid(spec):
        kwargs[swept.dest] = value
        try:
            produced = run(**kwargs)
        except DomainError as exc:
            raise DomainError(f"at {spec.parameter}={value!r}: {exc}") from exc
        for record in produced:  # a runner builds a fresh metadata dict per record
            record.metadata["swept"] = spec.parameter
        records += produced
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
    return command.load()(**{f.dest: getattr(args, f.dest) for f in command.flags
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
