"""Exact complex state algebra for one and two qubits.

Amplitude vectors are ordered |0>, |1> for one qubit and |00>, |01>, |10>, |11>
for two, with the first tensor factor as the most significant qubit.

One normalization contract covers every unit vector in the package (states,
Bell and bipartite weights, Rabi coefficients, Hamiltonian directions):
``unit_vector`` accepts finite values whose 2-norm is within 1e-6 of 1 and
renormalizes them, and rejects anything else, so silent normalization drift is
distinguished from caller bugs.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

NORM_TOLERANCE = 1e-6


def unit_vector(values, what: str) -> np.ndarray:
    """values as a new complex array scaled to unit 2-norm.

    Raises DomainError unless every component is finite and the 2-norm lies
    within NORM_TOLERANCE of 1.
    """
    arr = np.array(values, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > NORM_TOLERANCE:
        raise DomainError(f"{what} norm {norm!r} not within {NORM_TOLERANCE} of 1")
    arr /= norm
    return arr


class PureState:
    """Immutable normalized pure state of one or two qubits."""

    __slots__ = ("_amps",)

    def __init__(self, amplitudes) -> None:
        arr = unit_vector(amplitudes, "state")
        if arr.ndim != 1 or arr.shape[0] not in (2, 4):
            raise DomainError("amplitude vector must have length 2 or 4")
        arr.flags.writeable = False
        self._amps = arr

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only complex amplitude vector."""
        return self._amps

    @property
    def num_qubits(self) -> int:
        return 1 if self._amps.shape[0] == 2 else 2

    def __repr__(self) -> str:
        return f"PureState({self._amps.tolist()!r})"


def ket(label: str) -> PureState:
    """Computational basis state from a bit string, e.g. ket("0") or ket("10")."""
    if not label or len(label) > 2 or any(ch not in "01" for ch in label):
        raise DomainError(f"basis label must be 1 or 2 bits, got {label!r}")
    amps = np.zeros(2 ** len(label), dtype=np.complex128)
    amps[int(label, 2)] = 1.0
    return PureState(amps)


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.num_qubits != b.num_qubits:
        raise DomainError("inner product requires states with equal qubit count")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Two-qubit product state; the first factor is the most significant qubit."""
    if a.num_qubits != 1 or b.num_qubits != 1:
        raise DomainError("tensor product is defined for single-qubit factors only")
    return PureState(np.kron(a.amplitudes, b.amplitudes))


def equal_up_to_global_phase(a: PureState, b: PureState, tol: float) -> bool:
    """True iff a equals c*b for some unit-modulus c, within tol in the 2-norm.

    The candidate c is read off the largest-magnitude componentwise overlap
    a_k * conj(b_k).  States with disjoint support compare unequal.
    """
    if a.num_qubits != b.num_qubits:
        raise DomainError("phase comparison requires states with equal qubit count")
    overlaps = a.amplitudes * np.conj(b.amplitudes)
    k = int(np.argmax(np.abs(overlaps)))
    if overlaps[k] == 0.0:
        return False
    c = overlaps[k] / abs(overlaps[k])
    return bool(np.linalg.norm(a.amplitudes - c * b.amplitudes) <= tol)
