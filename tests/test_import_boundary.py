"""A call loads only what it runs: numpy for loops only, and of the package
only the modules of the command dispatched.

Each check runs in a fresh interpreter, since this test process has numpy
and every module loaded already.  One child dispatches every numpy-free case
in turn and reports, after each, whether numpy is in ``sys.modules``; so the
first case that pulls it in is the one named.  Another child dispatches one
case and reports the package modules it loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# ---------------------------------------------------------------------------
# package modules per command

LOADED = r"""
import contextlib, io, json, sys
before = set(sys.modules)
exec(sys.argv[1])
code = None
if len(sys.argv) > 2:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = spinphase.cli.dispatch(json.loads(sys.argv[2]))
new = set(sys.modules) - before
print(json.dumps([code, sorted(m for m in new if m.startswith("spinphase")),
                  "dataclasses" in new]))
"""
CLI = {"spinphase", "spinphase.cli", "spinphase._angles", "spinphase.errors"}


def loaded_by(entry: str, argv=None) -> tuple:
    args = [entry] if argv is None else [entry, json.dumps(argv)]
    code, modules, dataclasses = json.loads(run_child(LOADED, *args))
    return code, set(modules), dataclasses


def test_import_loads_no_other_module():
    assert loaded_by("import spinphase") == (None, {"spinphase"}, False)
    assert loaded_by("from spinphase.cli import main") == (None, CLI, False)
    # a module's name loads that module, as the eager import bound them all
    code, modules, _ = loaded_by("import spinphase; spinphase.rabi.RabiParams")
    assert modules == {"spinphase", "spinphase.rabi", "spinphase.phases", "spinphase.states",
                       "spinphase._angles", "spinphase.errors"}


# (argv, exit code, the package modules beyond the CLI's own that it loads);
# CIRCUIT stands for a circuit file's path
OWN_MODULES = [
    (["phase", "--spin", "up", "--theta", "1.0"], 0, {"phases"}),
    (["phase", "--spin", "up", "--theta", "4.0"], 1, {"phases"}),
    (sweep("phase", "theta", "--spin", "down"), 0, {"phases"}),
    (["noise", "--spin", "up", "--theta", "0.9", "--delta-theta", "0.02"], 0,
     {"noise", "phases"}),
    (sweep("noise", "theta", "--spin", "entangled", "--delta-theta", "0.02"), 0,
     {"noise", "phases"}),
    (["holonomy", "--spin", "up", "--theta", "1.0", "--segments", "64"], 0,
     {"berry", "phases", "states"}),
    (["circuit", "--file", "CIRCUIT", "--theta", "0.7"], 0, {"circuits", "phases", "states"}),
    (sweep("circuit", "theta", "--file", "CIRCUIT"), 0, {"circuits", "phases", "states"}),
    (["rabi", "--omega", "1", "--t", "2", "--c0", "0.6", "--c1", "0,0.8"], 0,
     {"rabi", "phases", "states"}),
    (["echo", "--phi", "0.3", "--chi", "-1.0"], 0, {"rabi", "phases", "states"}),
    (["entangle", "--theta", "1.0", "--alpha", "0.6", "--beta", "0.8"], 0,
     {"entangle", "phases", "states"}),
    (["rgflow", "--a", "0.3", "--c", "1.0", "--separation", "2.0"], 0,
     {"entangle", "phases", "states"}),
    (["--help"], 0, set()),
    (["phase", "--spin", "sideways", "--theta", "1.0"], 2, set()),
    (sweep("echo", "theta", "--phi", "0.3", "--chi", "-1.0"), 2, set()),
]


@pytest.mark.parametrize(("argv", "code", "own"), OWN_MODULES,
                         ids=[f"{k}-{argv[0]}" for k, (argv, _, _) in enumerate(OWN_MODULES)])
def test_a_command_loads_only_its_own_modules(tmp_path, argv, code, own):
    circuit = tmp_path / "prep.circ"
    circuit.write_text("H P(2*theta) H P(pi/2 + phi)\n", encoding="utf-8")
    argv = [str(circuit) if arg == "CIRCUIT" else arg for arg in argv]
    want = CLI | {f"spinphase.{name}" for name in own}
    assert loaded_by("import spinphase.cli", argv) == (code, want, False)


# every public name as the eager __init__ of earlier releases imported it
EXPORTS = {
    "_angles": "TWO_PI mod_two_pi wrap_pm_pi",
    "berry": "Loop entangled_family_loop holonomy_numeric spinor_loop",
    "circuits": """GENERAL_STATE_TEXT SPINOR_STATE_TEXT Circuit Gate Orientation SpinorParams
        apply_gate evaluate_expr format_circuit general_state_circuit parse_circuit
        prepare_spinor run_circuit spinor_state_circuit""",
    "cli": "RunRecord SweepSpec dispatch emit main run_records sweep",
    "entangle": """BellCoefficients BipartiteCoefficients RgFlowParams bell_singlet_qubits
        concurrence_from_theta concurrence_general entanglement_entropy evolve_bell
        monopole_strength_rg swap_expectation""",
    "errors": """CircuitSyntaxError DegeneratePathError DomainError UnboundSymbolError
        UnknownSymbolError""",
    "noise": """NoiseSpec NoiseTarget entangled_noise_shift noisy_phase perturbed_connection
        post_echo_noise_shift""",
    "phases": """CLOSURE_TOLERANCE MIN_OVERLAP GeometricPhase PhaseConvention
        berry_phase_analytic berry_phase_entangled connection winding_phase""",
    "rabi": """PhaseLedger PulseKind PulseSpec RabiParams apply_pulse evolve_coefficients
        hamiltonian_matrix matched_echo_params pulse_ledger spin_echo_ledger""",
    "states": """NORM_TOLERANCE PureState equal_up_to_global_phase inner_product ket
        tensor_product""",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


@pytest.mark.parametrize(("module", "name"), NAMES, ids=[name for _, name in NAMES])
def test_public_names_resolve_to_their_modules(module, name):
    from importlib import import_module

    assert getattr(spinphase, name) is getattr(import_module(f"spinphase.{module}"), name)
    assert name in dir(spinphase)


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from spinphase import *", namespace)
    assert set(namespace) - {"__builtins__"} == {name for _, name in NAMES}


def test_public_names_follow_a_rebinding(monkeypatch):
    from spinphase import phases

    monkeypatch.setattr(phases, "connection", len)
    assert spinphase.connection is len


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        spinphase.nothing
    assert not hasattr(spinphase, "dataclass")
