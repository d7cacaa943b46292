"""Geometric phases of driven spin-1/2 systems.

Analytic closed-loop phases and their discrete-transport check, a small gate
DSL for state preparation, resonant pulse dynamics with an echo phase ledger,
Bell-state evolution with entanglement measures, polar-angle noise response,
and a length-scale flow for the effective monopole strength.

The names imported here are the public API.
"""

from ._angles import TWO_PI, mod_two_pi, wrap_pm_pi
from .berry import (
    CLOSURE_TOLERANCE,
    MIN_OVERLAP,
    GeometricPhase,
    Loop,
    PhaseConvention,
    berry_phase_analytic,
    berry_phase_entangled,
    connection,
    entangled_family_loop,
    holonomy_numeric,
    spinor_loop,
    winding_phase,
)
from .circuits import (
    GENERAL_STATE_TEXT,
    SPINOR_STATE_TEXT,
    Circuit,
    Gate,
    GateKind,
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
    noisy_phase_samples,
    perturbed_connection,
    post_echo_noise_shift,
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
