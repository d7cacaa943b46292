"""Compare the CLI of two source trees byte for byte over the seeded fuzz argvs.

    python3 tools/cli_differential.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  The argvs
are those of ``tests/test_cli_fuzz.py``: PER_COMMAND calls of each computing
command, drawn from that module's generator with its seeds (so the first 1000
of each are the fuzz test's own), and SWEEPS sweeps of the sweepable commands,
each a drawn call with its swept flag replaced by a grid.  Then CIRCUITS
circuit texts are drawn, each written to its own file and run as ``circuit
--file`` with drawn ``--theta`` and ``--phi``, or one in five as a ``sweep
--cmd circuit``.  Last, COEFFICIENTS generic unit coefficient pairs are drawn
and given to ``entangle`` as ``--alpha``/``--beta`` or to ``rabi`` as
``--c0``/``--c1``, one in five through ``sweep``.  Each tree runs every argv
through ``spinphase.cli.dispatch`` in its own subprocess, on the same files.
Prints the number of argvs and of differences in exit code, stdout or stderr,
and the first SHOW differences; exits 1 if any differ.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
PER_COMMAND = 3000
SWEEPS = 3000
CIRCUITS = 3000
COEFFICIENTS = 3000
SHOW = 5

CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import spinphase.cli
if Path(spinphase.cli.__file__).resolve().parent.parent != src:
    raise SystemExit(f"spinphase loaded from {spinphase.cli.__file__}, not {src}")
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = spinphase.cli.dispatch(argv)
        except Exception as exc:  # an escape is a result to compare too
            code = f"raised {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

# sweepable flag of each command -> the sweep parameter that drives it
SWEPT = {
    "phase": {"--theta": "theta"},
    "holonomy": {"--theta": "theta"},
    "circuit": {"--theta": "theta"},
    "rabi": {"--t": "omega_t"},
    "entangle": {"--theta": "theta"},
    "noise": {"--theta": "theta", "--delta-theta": "delta_theta"},
    "rgflow": {"--separation": "separation"},
}


# Pieces of drawn circuit texts: blanks, comments, a Greek letter, an Arabic-Indic
# digit, bad numbers and stray characters.  No numeric symbol such as ² or ½: a tree
# from before the token pattern calls one a bad number, a later one an unknown symbol.
BLANKS = (" ", "  ", "\t", "\r", "\n", " # c\n")
VALUES = ("theta", "phi", "pi", "1", "2.5", ".5", "1e3", "1E-2", "3.0e+2", "0", "٣")
STRAY = ("θ", "٣.٥", "1.2.3", "1e", "2e+", "..", ".", "@", "$", "_", "\x0b", "\xa0", "é",
         "x", "pie", "HP", "1e400", "/0", "(", ")", "+", "P(", "# c")


def expression(rng: random.Random, depth: int = 0) -> str:
    draw = rng.random()
    if depth > 3 or draw < 0.4:
        return rng.choice(VALUES)
    if draw < 0.55:
        return "-" + expression(rng, depth + 1)
    if draw < 0.7:
        return "(" + expression(rng, depth + 1) + ")"
    op = rng.choice(BLANKS[:4]) + rng.choice("+-*/") + rng.choice(BLANKS[:4])
    return expression(rng, depth + 1) + op + expression(rng, depth + 1)


def circuit_text(rng: random.Random, max_depth: int) -> str:
    """Gates with blanks between them and some stray pieces, or stray pieces
    alone; some with an argument nested near max_depth or ending in a comment."""
    parts = []
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 6)):
            parts += ["H" if rng.random() < 0.4 else f"P({expression(rng)})", rng.choice(BLANKS)]
        strays = 1 if rng.random() < 0.3 else 0
    else:
        strays = rng.randint(0, 20)
    for _ in range(strays):
        parts.insert(rng.randint(0, len(parts)), rng.choice(STRAY + VALUES + BLANKS))
    if rng.random() < 0.05:
        levels = max_depth + rng.choice((-1, 0, 1))
        parts.append("P(" + rng.choice("(-") * levels + "theta" + ")" * levels + ")")
    if rng.random() < 0.2:
        parts.append(rng.choice(("# end", "#", " # @")))
    return "".join(parts)


def unit_pair(rng: random.Random) -> list[str]:
    """A seeded Gaussian complex pair scaled to unit norm, half of them then off
    it by up to 9e-7, as two "re,im" flag values.  The fuzz test's unit pairs
    are four fixed ones; the last bits of these vary, and the check
    renormalizes them."""
    parts = [rng.gauss(0.0, 1.0) for _ in range(4)]
    scale = 1.0 / math.sqrt(math.fsum(x * x for x in parts))
    if rng.random() < 0.5:
        scale *= 1.0 + rng.uniform(-9e-7, 9e-7)
    return [f"{parts[0] * scale!r},{parts[1] * scale!r}",
            f"{parts[2] * scale!r},{parts[3] * scale!r}"]


def coefficient_argv(rng: random.Random) -> list[str]:
    """An entangle at theta in [0, pi], or a rabi with omega in [-3, 3] and t in
    [0, 5], with a drawn unit pair; one in five a sweep of theta or omega_t."""
    a, b = unit_pair(rng)
    if rng.random() < 0.5:
        command, param, low, high = "entangle", "theta", 0.0, math.pi
        flags = [f"--alpha={a}", f"--beta={b}"]
    else:
        command, param, low, high = "rabi", "omega_t", 0.0, 5.0
        flags = ["--omega", repr(rng.uniform(-3.0, 3.0)), f"--c0={a}", f"--c1={b}"]
    if rng.random() < 0.2:
        start, stop = sorted(rng.uniform(low, high) for _ in range(2))
        return ["sweep", "--cmd", command, "--param", param, f"--start={start!r}",
                f"--stop={stop!r}", "--steps", "3", *flags]
    swept = "--theta" if command == "entangle" else "--t"
    return [command, swept, repr(rng.uniform(low, high)), *flags,
            "--format", rng.choice(("json", "csv"))]


def fuzz_argvs(src: str, circuit: str) -> list[list[str]]:
    """The fuzz test's draws, PER_COMMAND for each command, then the sweeps, then
    the runs of the drawn circuit files, written beside circuit, then the drawn
    coefficients; the fuzz module imports spinphase, from src here, but runs
    none of it."""
    sys.path[:0] = [str(TESTS), src]
    import test_cli_fuzz as fuzz

    argvs = []
    for command in fuzz.COMMANDS:
        rng = random.Random(f"cli-fuzz-{command}")
        argvs += [fuzz.argv(command, rng, circuit) for _ in range(PER_COMMAND)]
    rng = random.Random("cli-differential-sweep")
    for _ in range(SWEEPS):
        command = rng.choice(sorted(SWEPT))
        flag, param = rng.choice(sorted(SWEPT[command].items()))
        call = fuzz.argv(command, rng, circuit)
        k = call.index(flag)
        fixed = call[1:k] + call[k + 2:]
        ends = fuzz.ORDINARY if rng.random() < 0.5 else fuzz.EDGES
        start, stop = rng.choice(ends), rng.choice(ends)
        if rng.random() < 0.8:  # most grids ascend, so their points run
            start, stop = sorted((start, stop))
        argvs.append(["sweep", "--cmd", command, "--param", param,
                      f"--start={start!r}", f"--stop={stop!r}",
                      "--steps", rng.choice(("1", "2", "3", "5")), *fixed])
    from spinphase.circuits import MAX_DEPTH

    rng = random.Random("cli-differential-circuit")
    for k in range(CIRCUITS):
        file = Path(circuit).with_name(f"{k}.circ")
        file.write_text(circuit_text(rng, MAX_DEPTH), encoding="utf-8")
        phi = ["--phi", fuzz.real(rng)]
        if rng.random() < 0.2:
            start, stop = sorted(rng.sample(fuzz.ORDINARY, 2))
            argvs.append(["sweep", "--cmd", "circuit", "--param", "theta", f"--start={start!r}",
                          f"--stop={stop!r}", "--steps", "3", "--file", str(file), *phi])
        else:
            argvs.append(["circuit", "--file", str(file), "--theta", fuzz.real(rng), *phi,
                          "--format", rng.choice(("json", "csv"))])
    rng = random.Random("cli-differential-coefficients")
    argvs += [coefficient_argv(rng) for _ in range(COEFFICIENTS)]
    return argvs


def run_tree(src: str, argvs: list[list[str]]) -> list[list]:
    proc = subprocess.run([sys.executable, "-c", CHILD, src], input=json.dumps(argvs),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> None:
    if len(sys.argv) != 3:
        raise SystemExit("usage: " + __doc__.split("\n\n")[1].strip())
    old_src, new_src = sys.argv[1:]
    with tempfile.TemporaryDirectory() as tmp:
        circuit = Path(tmp) / "prep.circ"
        circuit.write_text("H P(2*theta) H P(pi/2 + phi)\n", encoding="utf-8")
        argvs = fuzz_argvs(new_src, str(circuit))
        old = run_tree(old_src, argvs)
        new = run_tree(new_src, argvs)
    differences = [(argv, a, b) for argv, a, b in zip(argvs, old, new, strict=True) if a != b]
    print(f"{len(argvs)} argvs, {len(differences)} differences")
    for argv, a, b in differences[:SHOW]:
        print(json.dumps({"argv": argv, "old": a, "new": b}))
    raise SystemExit(1 if differences else 0)


if __name__ == "__main__":
    main()
