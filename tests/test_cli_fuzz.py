"""A seeded fuzz of the computing commands: whatever float flags it is given, a
call exits 0, 1 or 2 and never raises, and a nonzero exit writes one stderr line.

Floats are drawn mostly from the edges of the double range (signed zeros, the
least subnormal, magnitudes whose squares or products overflow); complex flags
are pairs of them, or half the time a unit pair, so the checks past the
normalization run too.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

import pytest

from spinphase import dispatch

EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e154, -1e154, 1e200, -1e200, 1e308, -1e308,
         math.pi)
ORDINARY = (0.02, 0.5, 1.0, -2.5, 3.0)
UNIT_PAIRS = (("1", "0"), ("0", "-1"), ("0.6", "0,0.8"), ("-0.0,0.6", "0.8,-0.0"))
ARGVS_PER_COMMAND = 1000


def real(rng: random.Random) -> str:
    return repr(rng.choice(EDGES) if rng.random() < 0.75 else rng.choice(ORDINARY))


def pair(rng: random.Random) -> tuple[str, str]:
    if rng.random() < 0.5:
        return rng.choice(UNIT_PAIRS)
    return f"{real(rng)},{real(rng)}", f"{real(rng)},{real(rng)}"


def argv(command: str, rng: random.Random, circuit: str) -> list[str]:
    """One call of command with drawn flag values."""
    if command == "phase":
        flags = ["--spin", rng.choice(("up", "down")), "--theta", real(rng)]
        flags += ["--degrees"] if rng.random() < 0.3 else []
    elif command == "holonomy":
        flags = ["--spin", rng.choice(("up", "down")), "--theta", real(rng),
                 "--segments", rng.choice(("1", "2", "3", "16"))]
    elif command == "circuit":
        flags = ["--file", circuit, "--theta", real(rng), "--phi", real(rng)]
    elif command == "rabi":
        c0, c1 = pair(rng)
        flags = ["--omega", real(rng), "--t", real(rng), "--c0", c0, "--c1", c1]
    elif command == "echo":
        flags = ["--phi", real(rng), "--chi", real(rng)]
    elif command == "entangle":
        alpha, beta = pair(rng)
        flags = ["--theta", real(rng), "--alpha", alpha, "--beta", beta]
    elif command == "noise":
        flags = ["--spin", rng.choice(("up", "down", "entangled")), "--theta", real(rng),
                 "--delta-theta", real(rng)]
    else:
        flags = ["--a", real(rng), "--c", real(rng), "--separation", real(rng)]
    return [command, *flags, "--format", rng.choice(("json", "csv"))]


COMMANDS = ("phase", "holonomy", "circuit", "rabi", "echo", "entangle", "noise", "rgflow")


@pytest.mark.parametrize("command", COMMANDS)
def test_a_call_never_raises(command, tmp_path):
    circuit = tmp_path / "prep.circ"
    circuit.write_text("H P(2*theta) H P(pi/2 + phi)\n", encoding="utf-8")
    rng = random.Random(f"cli-fuzz-{command}")
    codes = set()
    for _ in range(ARGVS_PER_COMMAND):
        call = argv(command, rng, str(circuit))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = dispatch(call)
            except Exception as exc:  # any escape is the failure reported
                pytest.fail(f"{call} raised {type(exc).__name__}: {exc}")
        assert code in (0, 1, 2), call
        if code:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1, call
            # a record's own check names no input: the computation must catch it first
            assert "record value" not in err.getvalue(), call
        else:
            assert err.getvalue() == "" and out.getvalue(), call
        codes.add(code)
    assert 0 in codes  # the draws reach the computation, not only its checks
