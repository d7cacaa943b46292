"""A call loads only what it runs: numpy for library loops only, and of the
package only the modules of the command dispatched.

Each check runs in a fresh interpreter, since this test process has numpy
and every module loaded already.  One child dispatches every case in turn and
reports, after each, whether numpy or ``spinphase.berry`` is in
``sys.modules``; so the first case that pulls one in is the one named.
Another child dispatches one case and reports the package modules it loaded,
and a third whether the ``json`` package was loaded.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spinphase

SRC = str(Path(spinphase.__file__).resolve().parent.parent)

CHILD = r"""
import contextlib, io, json, sys
import spinphase
loops = lambda: sorted({"numpy", "spinphase.berry"} & set(sys.modules))
report = [["import spinphase", None, loops()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = spinphase.dispatch(argv)
    report.append([argv, code, loops()])
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
    """(argv, expected exit code) for every command, sweeps and errors."""
    ok = [
        ["phase", "--spin", "up", "--theta", "1.0"],
        ["holonomy", "--spin", "up", "--theta", "1.0"],  # the default 20000 segments
        ["holonomy", "--spin", "down", "--theta", "2.0", "--segments", "64", "--format", "csv"],
        ["circuit", "--file", circuit, "--theta", "0.7", "--phi", "1.1", "--format", "csv"],
        ["rabi", "--omega", "1", "--t", "2", "--c0", "0.6", "--c1", "0,0.8"],
        ["echo", "--phi", "0.3", "--chi", "-1.0"],
        ["entangle", "--theta", "1.0", "--alpha", "0.6", "--beta", "0.8"],
        ["noise", "--spin", "entangled", "--theta", "0.9", "--delta-theta", "0.02"],
        ["rgflow", "--a", "0.3", "--c", "1.0", "--separation", "2.0"],
        sweep("phase", "theta", "--spin", "down"),
        sweep("holonomy", "theta", "--spin", "up", "--segments", "64"),
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
        (["holonomy", "--spin", "up", "--theta", "1.0", "--segments", "1"], 1),
        (["holonomy", "--spin", "up", "--theta", "1.0", "--segments", "1000001"], 1),
        (["holonomy", "--spin", "up", "--theta", "1.0", "--segments", "2.5"], 2),
        (["holonomy", "--spin", "up", "--theta", "4"], 1),
        (["holonomy", "--spin", "down", "--theta", "1.5707963267948966", "--segments", "2"], 1),
    ]


def test_no_numpy_outside_loops(tmp_path):
    circuit = tmp_path / "prep.circ"
    circuit.write_text("H P(2*theta) H P(pi/2 + phi)\n", encoding="utf-8")
    cases = numpy_free_cases(str(circuit))
    report = json.loads(run_child(CHILD, json.dumps([argv for argv, _ in cases])))
    assert report[0] == ["import spinphase", None, []]
    for (argv, code), (ran, got, loaded) in zip(cases, report[1:], strict=True):
        assert (ran, got) == (argv, code)
        assert not loaded, f"{loaded} imported by {argv}"


def test_only_library_loops_load_numpy():
    probe = ("import sys, spinphase; spinphase.Loop; "
             "print(sorted({'numpy', 'spinphase.berry'} & set(sys.modules)))")
    assert run_child(probe).strip() == "['numpy', 'spinphase.berry']"


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
    code, modules, _ = loaded_by("import spinphase; spinphase.rabi.spin_echo_ledger")
    assert modules == {"spinphase", "spinphase.rabi", "spinphase.states", "spinphase._angles",
                       "spinphase.errors"}


# (argv, exit code, the package modules beyond the CLI's own that it loads);
# CIRCUIT stands for a circuit file's path
OWN_MODULES = [
    (["phase", "--spin", "up", "--theta", "1.0"], 0, {"phases"}),
    (["phase", "--spin", "up", "--theta", "4.0"], 1, {"phases"}),
    (sweep("phase", "theta", "--spin", "down"), 0, {"phases"}),
    (["noise", "--spin", "up", "--theta", "0.9", "--delta-theta", "0.02"], 0, {"phases"}),
    (sweep("noise", "theta", "--spin", "entangled", "--delta-theta", "0.02"), 0, {"phases"}),
    (["holonomy", "--spin", "up", "--theta", "1.0", "--segments", "64"], 0,
     {"phases", "states"}),
    (["circuit", "--file", "CIRCUIT", "--theta", "0.7"], 0, {"circuits", "phases", "states"}),
    (sweep("circuit", "theta", "--file", "CIRCUIT"), 0, {"circuits", "phases", "states"}),
    (["rabi", "--omega", "1", "--t", "2", "--c0", "0.6", "--c1", "0,0.8"], 0,
     {"rabi", "states"}),
    (["echo", "--phi", "0.3", "--chi", "-1.0"], 0, {"rabi", "states"}),
    (["entangle", "--theta", "1.0", "--alpha", "0.6", "--beta", "0.8"], 0,
     {"entangle", "phases", "states"}),
    (["rgflow", "--a", "0.3", "--c", "1.0", "--separation", "2.0"], 0, {"phases"}),
    (["--help"], 0, set()),
    (["phase", "--spin", "sideways", "--theta", "1.0"], 2, set()),
    (sweep("echo", "theta", "--phi", "0.3", "--chi", "-1.0"), 2, set()),
    (sweep("holonomy", "theta", "--spin", "up", "--segments", "64"), 0, {"phases", "states"}),
    (["holonomy", "--spin", "up", "--theta", "1.0", "--segments", "1"], 1, {"phases"}),
    (["holonomy", "--spin", "up", "--theta", "4"], 1, {"phases"}),
    (sweep("rgflow", "separation", "--a", "0.3", "--c", "1.0"), 0, {"phases"}),
]


@pytest.mark.parametrize(("argv", "code", "own"), OWN_MODULES,
                         ids=[f"{k}-{argv[0]}" for k, (argv, _, _) in enumerate(OWN_MODULES)])
def test_a_command_loads_only_its_own_modules(tmp_path, argv, code, own):
    circuit = tmp_path / "prep.circ"
    circuit.write_text("H P(2*theta) H P(pi/2 + phi)\n", encoding="utf-8")
    argv = [str(circuit) if arg == "CIRCUIT" else arg for arg in argv]
    want = CLI | {f"spinphase.{name}" for name in own}
    assert loaded_by("import spinphase.cli", argv) == (code, want, False)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_modules() -> dict[str, set[str]]:
    """README's command -> modules table, one entry per command it names."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| command | modules it loads |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        commands, modules = line.strip("|").split("|")
        for command in re.findall(r"`(\w+)`", commands):
            rows[command] = set(re.findall(r"`(\w+)`", modules))
    return rows


def test_readme_table_is_the_tested_one():
    # every command's successful calls, direct or swept, against its README row
    tested = {}
    for argv, code, own in OWN_MODULES:
        if code == 0 and argv != ["--help"]:
            command = argv[argv.index("--cmd") + 1] if argv[0] == "sweep" else argv[0]
            tested.setdefault(command, []).append(own)
    readme = readme_modules()
    assert readme.keys() == tested.keys()
    for command, owns in tested.items():
        assert owns == [readme[command]] * len(owns), command


JSON_LOADED = r"""
import contextlib, io, sys
import spinphase.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = spinphase.cli.dispatch(sys.argv[1:])
print(code, "json" in sys.modules)
"""


# JSON output is the one path that loads the json package (for its string quoting)
@pytest.mark.parametrize(("argv", "code", "json_loaded"), [
    (["phase", "--spin", "up", "--theta", "1.0", "--format", "csv"], 0, False),
    (["phase", "--spin", "up", "--theta", "4.0"], 1, False),
    (["--help"], 0, False),
    (["phase", "--spin", "up", "--theta", "1.0"], 0, True),
], ids=["csv", "domain-error", "help", "json"])
def test_json_loads_only_for_json_output(argv, code, json_loaded):
    assert run_child(JSON_LOADED, *argv).split() == [str(code), str(json_loaded)]


# every public name as the eager __init__ of earlier releases imported it,
# less the ten that no command, criterion or document used, NoiseTarget and
# PhaseConvention, which nothing read, and the four parameter classes and two
# coefficient classes whose numbers the functions now take, and
# concurrence_from_theta, a second name of connection(UP, theta), and PhaseLedger,
# now the plain (geometric, dynamical) pair of spin_echo_ledger; monopole_strength_rg
# moved from entangle to phases, and the noise forms from the deleted noise module
EXPORTS = {
    "_angles": "TWO_PI mod_two_pi wrap_pm_pi",
    "berry": "Loop entangled_family_loop holonomy_numeric spinor_loop",
    "circuits": """GENERAL_STATE_TEXT SPINOR_STATE_TEXT Circuit Gate Orientation apply_gate
        format_circuit general_state_circuit parse_circuit prepare_spinor run_circuit
        spinor_state_circuit""",
    "cli": "RunRecord SweepSpec dispatch emit main run_records sweep",
    "entangle": "concurrence_general entanglement_entropy evolve_bell swap_expectation",
    "errors": """CircuitSyntaxError DegeneratePathError DomainError UnboundSymbolError
        UnknownSymbolError""",
    "phases": """CLOSURE_TOLERANCE MIN_OVERLAP GeometricPhase berry_phase_analytic
        berry_phase_entangled connection entangled_noise_shift monopole_strength_rg
        noisy_phase post_echo_noise_shift winding_phase""",
    "rabi": "evolve_coefficients matched_echo_params spin_echo_ledger",
    "states": "NORM_TOLERANCE PureState equal_up_to_global_phase ket",
}
# the public names that were removed, by the module that defined them; the
# noise module itself is gone too
DELETED = {
    "circuits": "evaluate_expr",
    "entangle": """BellCoefficients BipartiteCoefficients RgFlowParams bell_singlet_qubits
        concurrence_from_theta""",
    "noise": "NoiseSpec NoiseTarget perturbed_connection",
    "phases": "PhaseConvention SpinorParams",
    "rabi": """PhaseLedger PulseKind PulseSpec RabiParams apply_pulse hamiltonian_matrix
        pulse_ledger""",
    "states": "inner_product tensor_product",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


@pytest.mark.parametrize(("module", "name"), NAMES, ids=[name for _, name in NAMES])
def test_public_names_resolve_to_their_modules(module, name):
    from importlib import import_module

    assert getattr(spinphase, name) is getattr(import_module(f"spinphase.{module}"), name)
    assert name in dir(spinphase)


def test_deleted_names_are_gone():
    from importlib import import_module

    for module, names in DELETED.items():
        for name in names.split():
            assert not hasattr(spinphase, name)
            if module != "noise":
                assert not hasattr(import_module(f"spinphase.{module}"), name)
    assert not hasattr(spinphase, "noise")
    with pytest.raises(ModuleNotFoundError):
        import_module("spinphase.noise")


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


# ---------------------------------------------------------------------------
# imports in the source


def import_statements():
    """(module file name, its source lines, its tree, an import statement) for
    every import statement of the package's modules, at module level or inside
    a function body."""
    for path in sorted(Path(spinphase.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(source), source.splitlines()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield path.name, lines, tree, node


def importers_of(package: str) -> set[str]:
    """The package's modules with an import statement of package."""
    importers = set()
    for name, _, _, node in import_statements():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif not node.level:
            modules = [node.module or ""]
        else:
            continue
        if any(module.split(".")[0] == package for module in modules):
            importers.add(name)
    return importers


def unused_imports() -> list[str]:
    """Each name an import binds that its module never reads, as "module: name".
    A re-export names itself after a ``# noqa: F401`` on the statement's first
    line; __future__ imports bind no name."""
    unused, reads = [], {}
    for name, lines, tree, node in import_statements():
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        kept = lines[node.lineno - 1].partition("# noqa: F401")[2].split()
        if name not in reads:
            reads[name] = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in reads[name] and bound not in kept:
                unused.append(f"{name}: {bound}")
    return unused


def test_only_berry_imports_numpy():
    assert importers_of("numpy") == {"berry.py"}


def test_no_module_imports_argparse():
    # help and usage text come from the command table, so they cannot follow
    # the Python version's argparse
    assert importers_of("argparse") == set()


def test_every_imported_name_is_read():
    assert unused_imports() == []
