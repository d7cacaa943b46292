"""Geometric phases of driven spin-1/2 systems.

Analytic closed-loop phases and their discrete-transport check, a small gate
DSL for state preparation, resonant pulse dynamics with an echo phase ledger,
Bell-state evolution with entanglement measures, polar-angle noise response,
and a length-scale flow for the effective monopole strength.

The names in ``_PUBLIC`` are the public API.  Each loads its module on first
access (``spinphase.spinor_loop`` loads ``berry`` and numpy), as does a
module's own name (``spinphase.rabi``), so ``import spinphase`` loads no
other module of the package.
"""

from importlib import import_module as _import_module

_PUBLIC = {
    "_angles": "TWO_PI mod_two_pi wrap_pm_pi",
    "berry": "Loop entangled_family_loop holonomy_numeric spinor_loop",
    "circuits": """GENERAL_STATE_TEXT SPINOR_STATE_TEXT Circuit Gate apply_gate format_circuit
        general_state_circuit parse_circuit prepare_spinor run_circuit spinor_state_circuit""",
    "cli": "RunRecord SweepSpec dispatch emit main run_records sweep",
    "entangle": "concurrence_general entanglement_entropy evolve_bell swap_expectation",
    "errors": """CircuitSyntaxError DegeneratePathError DomainError UnboundSymbolError
        UnknownSymbolError""",
    "phases": """CLOSURE_TOLERANCE MIN_OVERLAP GeometricPhase Orientation berry_phase_analytic
        berry_phase_entangled connection entangled_noise_shift monopole_strength_rg
        noisy_phase post_echo_noise_shift winding_phase""",
    "rabi": "PhaseLedger evolve_coefficients matched_echo_params spin_echo_ledger",
    "states": "NORM_TOLERANCE PureState equal_up_to_global_phase ket",
}
# public name -> the module that defines it
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)  # a star import loads every module


def __getattr__(name: str):
    # looked up in the module on every access, not cached here, so a name
    # rebound there (a tracer, a test's monkeypatch) is the one callers get
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(_import_module(f"{__name__}.{module}"), name)
    if name in _PUBLIC:  # a module, which then stays bound here
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *_MODULE_OF})
