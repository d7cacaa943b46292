"""numpy loads for loops only: every other CLI call runs without it.

Each check runs in a fresh interpreter, since this test process has numpy
loaded already.  One child dispatches every numpy-free case in turn and
reports, after each, whether numpy is in ``sys.modules``; so the first case
that pulls it in is the one named.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import spinphase

SRC = str(Path(spinphase.__file__).resolve().parent.parent)

CHILD = r"""
import contextlib, io, json, sys
import spinphase
report = [["import spinphase", None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = spinphase.dispatch(argv)
    report.append([argv, code, "numpy" in sys.modules])
print(json.dumps(report))
"""


def run_child(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout


def sweep(cmd: str, param: str, *fixed: str) -> list[str]:
    return ["sweep", "--cmd", cmd, "--param", param, "--start", "0.5", "--stop", "1.5",
            "--steps", "3", *fixed]


def numpy_free_cases(circuit: str) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) for every command but holonomy."""
    ok = [
        ["phase", "--spin", "up", "--theta", "1.0"],
        ["circuit", "--file", circuit, "--theta", "0.7", "--phi", "1.1", "--format", "csv"],
        ["rabi", "--omega", "1", "--t", "2", "--c0", "0.6", "--c1", "0,0.8"],
        ["echo", "--phi", "0.3", "--chi", "-1.0"],
        ["entangle", "--theta", "1.0", "--alpha", "0.6", "--beta", "0.8"],
        ["noise", "--spin", "entangled", "--theta", "0.9", "--delta-theta", "0.02"],
        ["rgflow", "--a", "0.3", "--c", "1.0", "--separation", "2.0"],
        sweep("phase", "theta", "--spin", "down"),
        sweep("circuit", "theta", "--file", circuit, "--phi", "0.2"),
        sweep("rabi", "omega_t", "--omega", "1", "--c0", "1", "--c1", "0"),
        sweep("entangle", "theta", "--alpha", "0.6", "--beta", "0.8"),
        sweep("noise", "theta", "--spin", "up", "--delta-theta", "0.02"),
        sweep("rgflow", "separation", "--a", "0.3", "--c", "1.0"),
        ["--help"],
        ["phase", "--help"],
    ]
    return [(argv, 0) for argv in ok] + [
        # echo has no sweepable flag: a sweep of it is a usage error
        (sweep("echo", "theta", "--phi", "0.3", "--chi", "-1.0"), 2),
        (["phase", "--spin", "sideways", "--theta", "1.0"], 2),
        (["phase", "--spin", "up", "--theta", "4.0"], 1),
        (["rabi", "--omega", "1", "--t", "2", "--c0", "0.9", "--c1", "0.9"], 1),
    ]


def test_no_numpy_outside_loops(tmp_path):
    circuit = tmp_path / "prep.circ"
    circuit.write_text("H P(2*theta) H P(pi/2 + phi)\n", encoding="utf-8")
    cases = numpy_free_cases(str(circuit))
    report = json.loads(run_child(CHILD, json.dumps([argv for argv, _ in cases])))
    assert report[0] == ["import spinphase", None, False]
    for (argv, code), (ran, got, loaded) in zip(cases, report[1:], strict=True):
        assert (ran, got) == (argv, code)
        assert not loaded, f"numpy imported by {argv}"


def test_holonomy_and_loops_load_numpy():
    holonomy = ["holonomy", "--spin", "up", "--theta", "1.0", "--segments", "64"]
    report = json.loads(run_child(CHILD, json.dumps([holonomy])))
    assert report == [["import spinphase", None, False], [holonomy, 0, True]]
    probe = "import sys, spinphase; spinphase.Loop; print('numpy' in sys.modules)"
    assert run_child(probe).strip() == "True"
