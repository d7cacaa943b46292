"""Compare the CLI of two source trees byte for byte over the seeded fuzz argvs.

    python3 tools/cli_differential.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  The argvs
are those of ``tests/test_cli_fuzz.py``: PER_COMMAND calls of each computing
command, drawn from that module's generator with its seeds (so the first 1000
of each are the fuzz test's own), and SWEEPS sweeps of the sweepable commands,
each a drawn call with its swept flag replaced by a grid.  Each tree runs
every argv through ``spinphase.cli.dispatch`` in its own subprocess, with one
circuit file shared by both.  Prints the number of argvs and of differences
in exit code, stdout or stderr, and the first SHOW differences; exits 1 if
any differ.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
PER_COMMAND = 3000
SWEEPS = 3000
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


def fuzz_argvs(src: str, circuit: str) -> list[list[str]]:
    """The fuzz test's draws, PER_COMMAND for each command, then the sweeps; the
    fuzz module imports spinphase, from src here, but runs none of it."""
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
