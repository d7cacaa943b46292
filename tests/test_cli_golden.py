"""Golden CLI corpus: fixed invocations pinned byte for byte.

Every command in JSON and CSV, sweeps on the argv route (``dispatch``) and on
the library route (``sweep`` then ``emit``), domain errors (exit 1) and usage
errors (exit 2).  Each case pins stdout, stderr and the exit code stored in
``golden/cli_corpus.json``.  Usage and help text are built from the CLI's
command table in a fixed layout, so they read the same on every Python and
at any terminal width.  A case that runs a circuit carries the file's text
(``Circ``); the file is written afresh for each run.

The expected file is written by running this module as a script:

    PYTHONPATH=src python tests/test_cli_golden.py

Regenerate it only for an intended change of output, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from typing import NamedTuple

import pytest

from spinphase import SweepSpec, dispatch, emit, sweep

GOLDEN = Path(__file__).with_name("golden") / "cli_corpus.json"


class Circ(NamedTuple):
    """A case's circuit file: its text, or its bytes when they are not UTF-8,
    written to a fresh file on each run."""

    text: str | bytes


CIRCUIT = Circ("# golden circuit\nH P(2*theta) H P(pi/2 + phi)\n")

PHASE_SWEEP = ["sweep", "--cmd", "phase", "--param", "theta", "--start", "0",
               "--stop", "1", "--steps", "2"]

# name -> argv for dispatch, or ("sweep", cmd, (param, start, stop, steps), fixed, format)
CASES = {
    "phase-json": ["phase", "--spin", "up", "--theta", "1.0471975511965976"],
    "phase-csv": ["phase", "--spin", "down", "--theta", "2.5", "--format", "csv"],
    "phase-degrees": ["phase", "--spin", "up", "--theta", "60", "--degrees"],
    "holonomy-json": ["holonomy", "--spin", "down", "--theta", "2.0", "--segments", "800"],
    "holonomy-csv": ["holonomy", "--spin", "up", "--theta", "0.7", "--segments", "64",
                     "--format", "csv"],
    "circuit-json": ["circuit", "--file", CIRCUIT, "--theta", "0.7", "--phi", "1.1"],
    "circuit-csv": ["circuit", "--file", CIRCUIT, "--phi", "0.3", "--format", "csv"],
    "rabi-json": ["rabi", "--omega", "1.5", "--t", "2.0", "--c0", "0.6", "--c1", "0,0.8"],
    "rabi-csv": ["rabi", "--omega", "1", "--t", "3.141592653589793", "--c0=-0.6,0.0",
                 "--c1", "0,0.8", "--format", "csv"],
    "echo-json": ["echo", "--phi", "0", "--chi", "-3.141592653589793"],
    "echo-csv": ["echo", "--phi", "0.4", "--chi", "1.3", "--format", "csv"],
    "entangle-json": ["entangle", "--theta", "2.2", "--alpha", "0.6", "--beta", "0,0.8"],
    "entangle-csv": ["entangle", "--theta", "1.0471975511965976", "--alpha",
                     "0.7071067811865476", "--beta", "0.7071067811865476", "--format", "csv"],
    # unit coefficients whose evolved amplitudes are renormalized again for the concurrence
    "entangle-renormalized-concurrence": ["entangle", "--theta", "1.3", "--alpha", "0.8",
                                          "--beta", "0.6"],
    "noise-json": ["noise", "--spin", "down", "--theta", "1.2", "--delta-theta", "0.03"],
    "noise-csv": ["noise", "--spin", "entangled", "--theta", "0.9", "--delta-theta", "0.02",
                  "--format", "csv"],
    "rgflow-json": ["rgflow", "--a", "2.0", "--c", "0.1", "--separation", "10.0"],
    "rgflow-csv": ["rgflow", "--a", "0.3", "--c", "1.0", "--separation", "2.0",
                   "--format", "csv"],
    "sweep-argv-phase": ["sweep", "--cmd", "phase", "--param", "theta", "--start", "0",
                         "--stop", "3.141592653589793", "--steps", "5", "--spin", "up"],
    "sweep-argv-degrees": ["sweep", "--cmd", "phase", "--param", "theta", "--start", "0",
                           "--stop", "180", "--steps", "3", "--spin", "down", "--degrees"],
    "sweep-argv-omega-t": ["sweep", "--cmd", "rabi", "--param", "omega_t", "--start", "0",
                           "--stop", "1", "--steps", "3", "--omega", "2.0", "--c0", "1",
                           "--c1", "0"],
    "sweep-argv-rgflow-csv": ["sweep", "--cmd", "rgflow", "--param", "separation", "--start",
                              "1", "--stop", "2", "--steps", "4", "--a", "1.0", "--c", "0.5",
                              "--format", "csv"],
    "sweep-argv-holonomy": ["sweep", "--cmd", "holonomy", "--param", "theta", "--start", "0.5",
                            "--stop", "2.5", "--steps", "3", "--spin", "up", "--segments", "16"],
    "sweep-lib-noise": ("sweep", "noise", ("delta_theta", 0.01, 0.2, 3),
                        {"spin": "down", "theta": 1.0}, "json"),
    "sweep-lib-omega-t-csv": ("sweep", "rabi", ("omega_t", 0, 2, 3),
                              {"omega": 1.0, "c0": "0.6", "c1": "0,0.8"}, "csv"),
    "sweep-lib-dashed-name": ("sweep", "noise", ("theta", 0.2, 2.9, 4),
                              {"spin": "entangled", "delta-theta": 0.05}, "json"),
    "sweep-lib-int-segments": ("sweep", "holonomy", ("theta", 0.3, 2.8, 3),
                               {"--spin": "up", "segments": 32}, "csv"),
    "sweep-lib-bare-flag": ("sweep", "phase", ("theta", 0, 90, 3),
                            {"spin": "up", "degrees": True}, "json"),
    "sweep-argv-circuit": ["sweep", "--cmd", "circuit", "--param", "theta", "--start", "0",
                           "--stop", "3", "--steps", "4", "--file", CIRCUIT, "--phi", "0.5"],
    "sweep-lib-circuit-csv": ("sweep", "circuit", ("theta", 0.2, 2.9, 3),
                              {"file": CIRCUIT, "phi": 1.1}, "csv"),
    # format_circuit's parentheses: right operands of - and /, unary minus
    "circuit-nested-format": ["circuit", "--file", Circ(
        "P(theta - (phi - 1)) H P(-theta / (phi / 2))\nP(-(theta + phi) * 3 - -phi) H\n"),
        "--theta", "0.7", "--phi", "1.1"],
    "circuit-exponent-constant": ["circuit", "--file", Circ("H P(theta*1e-09 + 2.5E+2) H P(1e-3)"),
                                  "--theta", "0.4", "--phi", "0"],
    # a folded angle far outside (-4 pi, 4 pi]: the bits of its canonical representative
    "circuit-huge-angle": ["circuit", "--file", Circ("H P(1e15*pi + 0.5) H P(-3.5e12*2)")],
    "domain-circuit-syntax": ["circuit", "--file", Circ("H\n  P(theta +* 2)\n")],
    "domain-circuit-divide-by-zero": ["circuit", "--file", Circ("H P(theta/0)"),
                                      "--theta", "1"],
    "domain-circuit-infinite-angle": ["circuit", "--file", Circ("H P(theta * 1e308 * 10)"),
                                      "--theta", "0.7"],
    # a sum of 10^4 terms parses without recursion; formatting and running it would not
    "domain-circuit-too-deep": ["circuit", "--file",
                                Circ("H P(theta" + " + theta" * 10**4 + ")"), "--theta", "1"],
    # one character over the bound on circuit text
    "domain-circuit-too-long": ["circuit", "--file", Circ("H " * 65536 + "@")],
    "domain-phase-theta": ["phase", "--spin", "up", "--theta", "4.0"],
    "domain-holonomy-segments": ["holonomy", "--spin", "up", "--theta", "1.0",
                                 "--segments", "1"],
    "domain-circuit-missing-file": ["circuit", "--file", "/nonexistent/x.circ"],
    "domain-circuit-not-utf8": ["circuit", "--file", Circ(b"\xff\xfeH")],
    # the coefficients are checked before theta
    "domain-entangle-coefficients-first": ["entangle", "--theta", "5", "--alpha", "1",
                                           "--beta", "1"],
    "domain-rgflow-separation": ["rgflow", "--a", "1", "--c", "1", "--separation", "0"],
    "domain-rgflow-negative-rate": ["rgflow", "--a", "-1", "--c", "0", "--separation", "1"],
    "domain-rabi-negative-duration": ["rabi", "--omega", "1", "--t", "-1", "--c0", "1",
                                      "--c1", "0"],
    "domain-rabi-coefficients": ["rabi", "--omega", "1", "--t", "1", "--c0", "1", "--c1", "1"],
    "domain-noise-shift-too-large": ["noise", "--spin", "up", "--theta", "1",
                                     "--delta-theta", "0.9"],
    "domain-echo-infinite-phi": ["echo", "--phi=inf", "--chi", "0"],
    "domain-circuit-lexical": ["circuit", "--file", Circ("H P(theta) @\n")],
    # a negative value after its flag reads as a value, not as a flag
    "noise-negative-shift": ["noise", "--spin", "up", "--theta", "1", "--delta-theta",
                             "-3e-05"],
    "sweep-argv-negative-start": ["sweep", "--cmd", "noise", "--param", "delta_theta",
                                  "--start", "-3e-05", "--stop", "0.2", "--steps", "3",
                                  "--spin", "up", "--theta", "1"],
    # finite flags whose flow overflows: to +inf an error, to -inf clamped to 0
    "domain-rgflow-overflow": ["rgflow", "--a", "1e308", "--c", "0", "--separation", "1e-310"],
    "rgflow-clamped-overflow": ["rgflow", "--a", "1e308", "--c", "0", "--separation", "1e300"],
    # finite flags whose angle overflows a float
    "domain-rabi-overflow": ["rabi", "--omega", "1e308", "--t", "1e10", "--c0", "1",
                             "--c1", "0"],
    "domain-echo-overflow": ["echo", "--phi", "1e308", "--chi", "1e308"],
    "domain-sweep-grid-point": ["sweep", "--cmd", "phase", "--param", "theta", "--start",
                                "3.0", "--stop", "4.0", "--steps", "3", "--spin", "up"],
    # the first point computes, a later one fails: no row reaches stdout
    "domain-sweep-grid-point-csv": ["sweep", "--cmd", "phase", "--param", "theta", "--start",
                                    "3.0", "--stop", "4.0", "--steps", "3", "--spin", "up",
                                    "--format", "csv"],
    # finite bounds whose width stop - start overflows a float
    "sweep-overflowing-span": ["sweep", "--cmd", "circuit", "--param", "theta", "--start",
                               "-1e308", "--stop", "1e308", "--steps", "3", "--file", CIRCUIT],
    "domain-sweep-circuit-missing-file": ["sweep", "--cmd", "circuit", "--param", "theta",
                                          "--start", "0", "--stop", "1", "--steps", "3",
                                          "--file", "/nonexistent/x.circ"],
    "usage-stray-flag": ["phase", "--spin", "up", "--theta", "1.0", "--bogus", "1"],
    "usage-sweep-stray-flag": PHASE_SWEEP + ["--spin", "up", "--bogus", "7"],
    # the swept flag is not given: the grid drives it
    "usage-sweep-swept-flag": PHASE_SWEEP + ["--spin", "up", "--theta", "0.5", "--format", "csv"],
    "usage-sweep-cmd-sweep": ["sweep", "--cmd", "sweep", "--param", "theta", "--start", "0",
                              "--stop", "1", "--steps", "2"],
    "usage-sweep-steps-1": ["sweep", "--cmd", "phase", "--param", "theta", "--start", "0",
                            "--stop", "1", "--steps", "1", "--spin", "up"],
    "usage-sweep-param-not-in-target": ["sweep", "--cmd", "echo", "--param", "theta",
                                        "--start", "0", "--stop", "1", "--steps", "2",
                                        "--phi", "0", "--chi", "1"],
    "usage-missing-flag": ["phase", "--spin", "up"],
    "usage-bad-complex": ["rabi", "--omega", "1", "--t", "1", "--c0", "a,b", "--c1", "0"],
    "usage-unknown-command": ["nope"],
    "usage-no-command": [],
    "help-top": ["--help"],
    "help-rabi": ["rabi", "--help"],
    "help-sweep": ["sweep", "--help"],
}


def run_case(case, workdir: Path) -> dict:
    """stdout, stderr and exit code of one case (library cases exit 0)."""

    def path(value):
        if not isinstance(value, Circ):
            return value
        file = workdir / "golden.circ"
        if isinstance(value.text, bytes):
            file.write_bytes(value.text)
        else:
            file.write_text(value.text, encoding="utf-8")
        return str(file)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if isinstance(case, tuple):
            _, cmd, (param, start, stop, steps), fixed, fmt = case
            fixed = {k: path(v) for k, v in fixed.items()}
            records = sweep(cmd, SweepSpec(param, start, stop, steps), fixed)
            assert all(r.metadata["swept"] == param for r in records)
            out.write(emit(records, fmt).decode("utf-8"))
            code = 0
        else:
            code = dispatch([path(a) for a in case])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_names_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden_bytes(name, golden, tmp_path):
    assert run_case(CASES[name], tmp_path) == golden[name]


def test_corpus_covers_every_exit_code(golden):
    assert {entry["exit"] for entry in golden.values()} == {0, 1, 2}
    for entry in golden.values():
        if entry["exit"] == 1:
            assert entry["stdout"] == "" and entry["stderr"].count("\n") == 1


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus = {name: run_case(case, Path(tmp)) for name, case in sorted(CASES.items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
