"""Geometric phases of driven spin-1/2 systems.

Analytic closed-loop phases and their discrete-transport check, a small gate
DSL for state preparation, resonant pulse dynamics with an echo phase ledger,
Bell-state evolution with entanglement measures, polar-angle noise response,
and a length-scale flow for the effective monopole strength.

The names imported here, and the loop names of ``berry``, are the public
API.  The loop names load on first access (``spinphase.spinor_loop``), so
``import spinphase`` does not import numpy.
"""

from ._angles import TWO_PI, mod_two_pi, wrap_pm_pi
from .circuits import (
    GENERAL_STATE_TEXT,
    SPINOR_STATE_TEXT,
    Circuit,
    Gate,
    Orientation,
    SpinorParams,
    apply_gate,
    evaluate_expr,
    format_circuit,
    general_state_circuit,
    parse_circuit,
    prepare_spinor,
    run_circuit,
    spinor_state_circuit,
)
from .cli import RunRecord, SweepSpec, dispatch, emit, main, run_records, sweep
from .entangle import (
    BellCoefficients,
    BipartiteCoefficients,
    RgFlowParams,
    bell_singlet_qubits,
    concurrence_from_theta,
    concurrence_general,
    entanglement_entropy,
    evolve_bell,
    monopole_strength_rg,
    swap_expectation,
)
from .errors import (
    CircuitSyntaxError,
    DegeneratePathError,
    DomainError,
    UnboundSymbolError,
    UnknownSymbolError,
)
from .noise import (
    NoiseSpec,
    NoiseTarget,
    entangled_noise_shift,
    noisy_phase,
    perturbed_connection,
    post_echo_noise_shift,
)
from .phases import (
    CLOSURE_TOLERANCE,
    MIN_OVERLAP,
    GeometricPhase,
    PhaseConvention,
    berry_phase_analytic,
    berry_phase_entangled,
    connection,
    winding_phase,
)
from .rabi import (
    PhaseLedger,
    PulseKind,
    PulseSpec,
    RabiParams,
    apply_pulse,
    evolve_coefficients,
    hamiltonian_matrix,
    matched_echo_params,
    pulse_ledger,
    spin_echo_ledger,
)
from .states import (
    NORM_TOLERANCE,
    PureState,
    equal_up_to_global_phase,
    inner_product,
    ket,
    tensor_product,
)

_BERRY_NAMES = ("Loop", "entangled_family_loop", "holonomy_numeric", "spinor_loop")


def __getattr__(name: str):
    # looked up in berry on every access, not cached here, so a name rebound
    # in berry (a tracer, a test's monkeypatch) is the one callers get
    if name in _BERRY_NAMES:
        from . import berry

        return getattr(berry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
