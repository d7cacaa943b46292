"""Command-line surface: one subcommand per computation plus parameter sweeps.

Records are emitted as JSON (default) or CSV.  Identical invocations produce
byte-identical output.  Exit codes: 0 success, 1 domain error (bad physics
input), 2 usage error (bad command or flags, one ``spinphase: <message>`` line).

Each command is one ``_COMMANDS`` entry (help, loader, flag specs).  Every flag
is read once by those specs (``_read``); help and usage text come from it too.
A loader imports the modules its command computes with and returns the runner,
once per invocation, so a call loads only what its own command needs.
"""

from __future__ import annotations

import codecs
import io
import itertools
import math
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._angles import TWO_PI, Frozen, check_integer, check_real
from .errors import DomainError

MAX_STEPS = 100_000  # grid points per sweep
_SLICE = 1 << 20  # payload bytes decoded per write to stdout


class _UsageError(DomainError):
    """A bad command or flag: exit code 2 from the CLI, a DomainError in a library call."""


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
        if not isinstance(parameter, str) or parameter not in _SWEEPABLE:
            raise DomainError(f"parameter must be one of {sorted(_SWEEPABLE)}")
        check_real("start and stop", start, stop)
        if not start < stop:
            raise DomainError("start must be below stop")
        if math.isinf(float(stop) - float(start)):  # the grid would step by inf
            raise DomainError("stop - start overflows a float")
        check_integer(steps, "steps")
        if steps < 2:
            raise DomainError("steps must be at least 2")
        if steps > MAX_STEPS:
            raise DomainError(f"steps must be at most {MAX_STEPS}")


def _braces(text: str) -> str:
    """text as a literal inside a ``str.format`` template."""
    return text.replace("{", "{{").replace("}", "}}")


def _json_layout(quote: Callable[[str], str], command: str,
                 *groups: tuple[str, ...]) -> str:
    """A ``str.format`` template for one record shape as it reads inside
    json.dumps([...], indent=2, sort_keys=True); quote is json's
    ``encode_basestring_ascii``.

    groups are the input, metadata and output keys in dict order.  Field k of
    the template is the k-th value of the three groups in that order, already
    as JSON text, and each group's members are laid out in sorted key order.
    """
    texts, first = [], 0
    for keys in groups:
        members = [_braces(f"      {quote(keys[i])}: ") + f"{{{first + i}}}"
                   for i in sorted(range(len(keys)), key=keys.__getitem__)]
        texts.append("{{\n" + ",\n".join(members) + "\n    }}" if members else "{{}}")
        first += len(keys)
    inputs, metadata, outputs = texts
    return (f'  {{{{\n    "command": {_braces(quote(command))},\n'
            f'    "inputs": {inputs},\n    "metadata": {metadata},\n'
            f'    "outputs": {outputs}\n  }}}}')


def _json_records(records: Iterable[RunRecord]) -> Iterator[str]:
    """Each record's JSON text, from one layout per shape (command and the
    three key tuples); values are printed as json prints them: float.__repr__,
    for float subclasses too, and quoted strings."""
    # loaded here, so a CSV call, an error or --help loads no json package
    from json.encoder import encode_basestring_ascii as quote

    real = float.__repr__
    layouts: dict[tuple, str] = {}
    for record in records:
        inputs, metadata, outputs = record.inputs, record.metadata, record.outputs
        shape = (record.command, tuple(inputs), tuple(metadata), tuple(outputs))
        layout = layouts.get(shape)
        if layout is None:
            layout = layouts[shape] = _json_layout(quote, *shape)
        yield layout.format(*map(real, inputs.values()), *map(quote, metadata.values()),
                            *map(real, outputs.values()))


def _csv_lines(records: Iterable[RunRecord]) -> Iterator[str]:
    """The header line, sorted input names then sorted output names, and one
    line per record, reals to 12 significant digits; nothing for no records.
    Each record shape (the input and output key tuples) is checked against the
    header and laid out once."""
    records = iter(records)
    first = next(records, None)
    if first is None:
        return
    in_names, out_names = sorted(first.inputs), sorted(first.outputs)
    layouts: dict[tuple, str] = {}
    yield ",".join(in_names + out_names) + "\n"
    for record in itertools.chain((first,), records):
        inputs, outputs = record.inputs, record.outputs
        shape = (tuple(inputs), tuple(outputs))
        layout = layouts.get(shape)
        if layout is None:
            if sorted(inputs) != in_names or sorted(outputs) != out_names:
                raise DomainError("csv output needs records with a common shape")
            slots = ([shape[0].index(k) for k in in_names]
                     + [len(inputs) + shape[1].index(k) for k in out_names])
            layout = layouts[shape] = ",".join(f"{{{k}:.12g}}" for k in slots) + "\n"
        yield layout.format(*map(float, inputs.values()), *map(float, outputs.values()))


def emit(records: Iterable[RunRecord], format: str) -> bytes:
    """Serialize records to a byte stream, JSON by default or flat CSV.

    CSV columns are the sorted input names then the sorted output names, reals
    printed to 12 significant digits.  JSON mirrors the records exactly, with
    the bytes of json.dumps(indent=2, sort_keys=True) plus a newline.  Layouts
    are built once per record shape and live for this call only.

    records may be any iterable, read once: each record's text goes into one
    buffer as it is made, so the payload is held once, and a record that fails
    to build or to fit the CSV header raises before any byte is returned.
    """
    out = io.BytesIO()
    if format == "json":  # JSON text is ASCII: no record can fail to encode
        for text in _json_records(records):
            out.write(b",\n" if out.tell() else b"[\n")
            out.write(text.encode())
        out.write(b"\n]\n" if out.tell() else b"[]\n")
        return out.getvalue()
    if format != "csv":
        raise DomainError(f"unknown format {format!r}")
    lines = _csv_lines(records)
    header = next(lines, None)
    if header is None:
        return b""
    try:
        out.write(header.encode())
    except UnicodeEncodeError:  # a name that cannot be encoded: a shape error wins
        for _ in lines:
            pass
        raise
    for line in lines:  # reals only: ASCII
        out.write(line.encode())
    return out.getvalue()


# ---------------------------------------------------------------------------
# flag specs


def _complex_flag(text: str) -> complex:
    return complex(*map(float, text.split(",")))  # one or two reals; a third is a TypeError


class _Flag(NamedTuple):
    """One command flag, named as typed after ``--``: ``type`` converts its text
    (``bool`` marks a bare switch), a flag without a default is required, and
    ``sweep`` names the sweep parameter that drives it."""

    name: str
    type: Callable[[str], object] = float
    default: object = None
    choices: tuple[str, ...] | None = None
    metavar: str | None = None
    sweep: str | None = None

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


class _Command(NamedTuple):
    """A subcommand: help line, loader and flags.  The loader imports what the
    command computes with and returns its runner, which takes the flag dests
    as keywords."""

    help: str
    load: Callable[[], Callable[..., Iterable[RunRecord]]]
    flags: tuple[_Flag, ...]


def _read(flags: Sequence[_Flag], given: Mapping[str, object], context: str,
          swept: _Flag | None = None) -> dict[str, object]:
    """The runner's keywords for given, {flag name (dashes optional): text, or
    True/False for a switch}, each text read once by its flag's converter.
    Unknown names, values a flag does not take, a value for the swept flag, and
    flags without a default that are neither given nor swept are usage errors;
    context leads the last three."""
    by_name = {flag.name: flag for flag in flags}
    kwargs = {flag.dest: flag.default for flag in flags if flag.default is not None}
    for key, value in given.items():
        key = key.removeprefix("--")
        if value is False or value is None:
            continue
        if key not in by_name:
            raise _UsageError(f"unrecognized arguments: --{key} {value}")
        flag = by_name[key]
        try:  # read once, from the value's text, as on the command line
            if flag is swept or (value is True) != (flag.type is bool):
                raise ValueError(value)
            kwargs[flag.dest] = value if value is True else flag.type(str(value))
            if flag.choices and kwargs[flag.dest] not in flag.choices:
                raise ValueError(value)
        except (TypeError, ValueError):
            raise _UsageError(f"{context}: --{key} {value}") from None
    missing = [f"--{f.name}" for f in flags if f.dest not in kwargs and f is not swept]
    if missing:
        raise _UsageError(f"{context}: missing {', '.join(missing)}")
    return kwargs


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
    # the loop streamed in plain Python: this command loads no numpy (berry's
    # array route gives the same value to a few ulp)
    from .phases import Orientation, berry_phase_analytic, spinor_holonomy

    def run(spin: str, theta: float, segments: int) -> list[RunRecord]:
        orientation = Orientation(spin)
        transported = spinor_holonomy(orientation, theta, segments)
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


def _circuit():
    from .circuits import MAX_TEXT_LENGTH, format_circuit, parse_circuit, run_circuit
    from .states import ket

    zero = ket("0")  # one input state for every point of the invocation
    # path -> (circuit, canonical text), filled on first use: a sweep reads,
    # parses and formats its file once however many grid points run it, and a
    # missing or bad file is still a domain error at the first point
    loaded: dict[str, tuple] = {}

    def run(file: str, theta: float, phi: float) -> list[RunRecord]:
        if file not in loaded:
            try:  # one character past the bound is enough to reject a longer text
                with Path(file).open(encoding="utf-8") as stream:
                    source = stream.read(MAX_TEXT_LENGTH + 1)
            except (OSError, UnicodeDecodeError) as exc:
                raise DomainError(f"cannot read circuit file: {exc}") from exc
            circuit = parse_circuit(source)
            loaded[file] = circuit, format_circuit(circuit)
        circuit, text = loaded[file]
        state = run_circuit(circuit, {"theta": theta, "phi": phi}, zero)
        a = state.amplitudes
        return [RunRecord(
            command="circuit",
            inputs={"theta": theta, "phi": phi},
            outputs=_re_im(amp0=a[0], amp1=a[1]),
            metadata={"circuit": text, "phase_convention": "none"},
        )]
    return run


def _rabi():
    from .rabi import evolve_coefficients

    def run(omega: float, t: float, c0: complex, c1: complex) -> list[RunRecord]:
        c0_out, c1_out = evolve_coefficients(c0, c1, omega, t)
        return [RunRecord(
            command="rabi",
            inputs={"omega": omega, "t": t, **_re_im(c0=c0, c1=c1)},
            outputs=_re_im(c0_out=c0_out, c1_out=c1_out),
            metadata={"phase_convention": "none"},
        )]
    return run


def _echo():
    from .rabi import spin_echo_ledger

    def run(phi: float, chi: float) -> list[RunRecord]:
        ledger = spin_echo_ledger(phi, chi)
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
    from .entangle import concurrence_general, entanglement_entropy, evolve_bell, swap_expectation
    from .phases import berry_phase_entangled

    def run(theta: float, alpha: complex, beta: complex) -> list[RunRecord]:
        state, relative_phase = evolve_bell(alpha, beta, theta)
        conc = concurrence_general(*state.amplitudes)
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
    from .phases import Orientation, entangled_noise_shift, noisy_phase, post_echo_noise_shift

    def run(spin: str, theta: float, delta_theta: float) -> list[RunRecord]:
        metadata = {"spin": spin, "phase_convention": "raw"}
        if spin == "entangled":  # the flag's choices hold spin to up, down or entangled
            outputs = {
                "entangled_shift": entangled_noise_shift(theta, delta_theta),
                "post_echo_shift": post_echo_noise_shift(theta, delta_theta),
            }
            metadata["post_echo_comparison"] = "qualitative"
        else:
            gp, shift = noisy_phase(Orientation(spin), theta, delta_theta)
            outputs = {"gamma_noisy": gp.value, "shift": shift}
        return [RunRecord(
            command="noise",
            inputs={"theta": theta, "delta_theta": delta_theta},
            outputs=outputs,
            metadata=metadata,
        )]
    return run


def _rgflow():
    from .phases import monopole_strength_unclamped

    def run(a: float, c: float, separation: float) -> list[RunRecord]:
        mu = monopole_strength_unclamped(a, c, separation)
        return [RunRecord(
            command="rgflow",
            inputs={"a": a, "c": c, "separation": separation},
            outputs={"mu": max(0.0, mu)},  # monopole_strength_rg's clamp
            metadata={
                "mu_clamped": "true" if mu < 0.0 else "false",
                "phase_convention": "none",
            },
        )]
    return run


def _run_sweep(cmd: str, param: str, start: float, stop: float, steps: int,
               **fixed: object) -> _Points:
    """The sweep command's runner; fixed holds the target's flags as given.
    Its records are built as emit reads them."""
    try:
        spec = SweepSpec(param, start, stop, steps)
    except DomainError as exc:
        raise _UsageError(str(exc)) from exc
    return _Points(cmd, spec, fixed)


_COMMANDS = {
    "phase": _Command("analytic closed-loop phase of one spinor, --theta in radians or "
                      "--degrees", _phase, (_SPIN, _THETA, _Flag("degrees", bool, False))),
    "holonomy": _Command("discrete loop-transport phase against the analytic value",
                         _holonomy, (_SPIN, _THETA, _Flag("segments", int, 20000))),
    "circuit": _Command("run a circuit file on |0>", _circuit, (
        _Flag("file", str, metavar="PATH"), _Flag("theta", default=0.0, sweep="theta"),
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
_COMMANDS["sweep"] = _Command("run another command, with its other flags, over a uniform "
                              "parameter grid", lambda: _run_sweep, (
    _Flag("cmd", str, metavar="COMMAND"), _Flag("param", str, choices=tuple(sorted(_SWEEPABLE))),
    _Flag("start"), _Flag("stop"), _Flag("steps", int)))
# every command's own; an empty --output writes to stdout
_OUTPUT_FLAGS = (_Flag("format", str, "json", choices=("csv", "json")),
                 _Flag("output", str, "", metavar="PATH"))


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


class _Points:
    """A sweep's records in grid order, each built when it is read, so a reader
    that streams them holds one at a time; a failing point raises when it is
    reached.  A bad name, flag or parameter raises at construction, before any
    point.  len() is the number of grid points, one record each, known before
    any is built (the benchmark's traced emit counts records by it)."""

    __slots__ = ("run", "kwargs", "dest", "spec")

    def __init__(self, subcommand: str, spec: SweepSpec, fixed: Mapping[str, object]) -> None:
        if subcommand not in _SWEEP_TARGETS:
            raise _UsageError(f"--cmd must be one of {_SWEEP_TARGETS}")
        command = _COMMANDS[subcommand]
        swept = next((f for f in command.flags if f.sweep == spec.parameter), None)
        kwargs = _read(command.flags, fixed, f"fixed flags do not fit {subcommand}", swept)
        if swept is None:
            flag = _SWEEPABLE[spec.parameter].name
            raise _UsageError(f"unrecognized arguments: --{flag} {float(spec.start)!r}")
        self.run, self.kwargs, self.dest, self.spec = command.load(), kwargs, swept.dest, spec

    def __len__(self) -> int:
        return self.spec.steps

    def __iter__(self) -> Iterator[RunRecord]:
        run, kwargs, parameter = self.run, self.kwargs, self.spec.parameter
        for value in _grid(self.spec):
            kwargs[self.dest] = value
            try:
                produced = run(**kwargs)
            except DomainError as exc:
                raise DomainError(f"at {parameter}={value!r}: {exc}") from exc
            for record in produced:  # a runner builds a fresh metadata dict per record
                record.metadata["swept"] = parameter
            yield from produced


def sweep(subcommand: str, spec: SweepSpec, fixed: Mapping[str, object]) -> list[RunRecord]:
    """Run one subcommand over the grid, one record per point, in grid order.

    fixed supplies the non-swept flags by their dashed names (leading dashes
    optional).  Each value is read once by its flag's converter, from its text
    as on the command line; True/False switch bare flags on and off.
    """
    return list(_Points(subcommand, spec, fixed))


# ---------------------------------------------------------------------------
# entry points


def _help(name: str | None) -> str:
    """--help text from the command table, in a fixed layout that never wraps."""
    if name is None:
        width = max(map(len, _COMMANDS))
        lines = [f"  {cmd:<{width}}  {command.help}\n" for cmd, command in _COMMANDS.items()]
        return ("usage: spinphase COMMAND [--FLAG VALUE ...]\n\n"
                "Geometric phases of driven spin-1/2 systems, from the command line.\n\n"
                "commands (spinphase COMMAND --help lists its flags):\n" + "".join(lines))
    words = []
    for flag in _OUTPUT_FLAGS + _COMMANDS[name].flags:
        value = "{%s}" % ",".join(flag.choices) if flag.choices else \
            flag.metavar or flag.dest.upper()
        word = f"--{flag.name}" if flag.type is bool else f"--{flag.name} {value}"
        words.append(word if flag.default is None else f"[{word}]")
    return f"usage: spinphase {name} {' '.join(words)}\n\n{_COMMANDS[name].help}\n"


def _invoke(argv: Sequence[str]) -> tuple[Iterable[RunRecord], str, str] | None:
    """The records argv asks for, with the format and output path, or None once
    the help it asks for is printed; a sweep's records are built as they are
    read.  The token after a value flag is its value whatever it starts with,
    so ``--start -3e-05`` reads as a number."""
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        sys.stdout.write(_help(None))
        return None
    if name not in _COMMANDS:
        problem = "missing command" if name is None else f"unknown command {name!r}"
        raise _UsageError(f"{problem}; COMMAND is one of {', '.join(_COMMANDS)}")
    flags = _OUTPUT_FLAGS + _COMMANDS[name].flags
    # a sweep passes its target's flags on as given, for their own specs to read
    passed = tuple(_TARGET_FLAGS.values()) if name == "sweep" else ()
    switches = {f"--{flag.name}" for flag in flags + passed if flag.type is bool}
    own, given, fixed = {f"--{flag.name}" for flag in flags}, {}, {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_help(name))
            return None
        key, is_pair, text = token.partition("=")
        if not key.startswith("--") or key == "--":
            raise _UsageError(f"unrecognized arguments: {token}")
        value = text if is_pair else True if key in switches else next(tokens, None)
        if value is None:
            raise _UsageError(f"{key} needs a value")
        (fixed if passed and key not in own else given)[key] = value
    kwargs = _read(flags, given, f"invalid flags for {name}")
    format, output = kwargs.pop("format"), kwargs.pop("output")
    return _COMMANDS[name].load()(**kwargs, **fixed), format, output


def run_records(argv: Sequence[str]) -> list[RunRecord]:
    """Read argv and build the records, without serializing or exiting (help is
    printed and builds none).  Raises DomainError, a _UsageError for a bad
    command or flag; a seam for tests and for callers who want records."""
    invoked = _invoke(argv)
    return [] if invoked is None else list(invoked[0])


def dispatch(argv: Sequence[str]) -> int:
    """Run one invocation; returns the process exit code instead of exiting."""
    try:
        invoked = _invoke(argv)
        if invoked is None:
            return 0
        records, format, output = invoked
        payload = emit(records, format)
        if output:
            try:
                Path(output).write_bytes(payload)
            except OSError as exc:
                raise DomainError(f"cannot write output file: {exc}") from exc
        else:  # in slices: the payload's text is never held whole
            decode = codecs.getincrementaldecoder("utf-8")().decode
            for start in range(0, len(payload), _SLICE):
                sys.stdout.write(decode(payload[start:start + _SLICE]))
    except _UsageError as exc:
        print(f"spinphase: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"{argv[0]}: {exc}", file=sys.stderr)  # argv names a command: else a usage error
        return 1
    return 0


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))
