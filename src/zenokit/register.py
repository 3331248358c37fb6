"""Small state-vector register with CNOT and partial trace.

Just enough machinery for the entangled-environment recoherence demo and
for cross-checking the projected chain against a literal simulation.
Qubit 0 is the system; amplitude ordering is little-endian (bit j of the
amplitude index is the state of qubit j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MAX_QUBITS = 12
_TOL = 1e-12


@dataclass(frozen=True)
class QubitRegister:
    k: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.k <= MAX_QUBITS:
            raise ValidationError(f"qubit count {self.k} outside 1..{MAX_QUBITS}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.k,):
            raise ValidationError(
                f"expected {2**self.k} amplitudes, got shape {amps.shape}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > _TOL:
            raise ValidationError(f"squared norm {norm!r} deviates from 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class DensityMatrix2:
    """2x2 reduced density matrix; validated Hermitian, unit trace, PSD."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValidationError(f"expected a 2x2 matrix, got shape {m.shape}")
        if abs(m[1, 0] - np.conj(m[0, 1])) > _TOL:
            raise ValidationError("matrix is not Hermitian")
        if abs(m[0, 0].imag) > _TOL or abs(m[1, 1].imag) > _TOL:
            raise ValidationError("diagonal is not real")
        if abs(np.trace(m).real - 1.0) > _TOL:
            raise ValidationError(f"trace {np.trace(m)!r} deviates from 1")
        if np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -_TOL:
            raise ValidationError("matrix has a negative eigenvalue")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def coherence(self) -> float:
        return abs(self.matrix[0, 1])


def apply_cnot(state: QubitRegister, control: int, target: int) -> QubitRegister:
    """Controlled-NOT: flip the target bit wherever the control bit is 1."""
    if control == target:
        raise ValidationError("control and target must differ")
    for name, q in (("control", control), ("target", target)):
        if not 0 <= q < state.k:
            raise ValidationError(f"{name} qubit {q} outside 0..{state.k - 1}")
    idx = np.arange(2**state.k)
    flipped = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    return QubitRegister(k=state.k, amplitudes=state.amplitudes[flipped].copy())


def partial_trace_to_system(state: QubitRegister, system_index: int = 0) -> DensityMatrix2:
    """Reduced density matrix of one qubit, tracing out all the others."""
    if state.k < 2:
        raise ValidationError("partial trace needs at least 2 qubits")
    if not 0 <= system_index < state.k:
        raise ValidationError(f"system qubit {system_index} outside 0..{state.k - 1}")
    psi = state.amplitudes.reshape([2] * state.k)
    # reshape is row-major, so axis (k-1-j) carries qubit j
    psi = np.moveaxis(psi, state.k - 1 - system_index, 0).reshape(2, -1)
    return DensityMatrix2(matrix=psi @ psi.conj().T)


def recoherence_demo() -> list[tuple[str, DensityMatrix2, float]]:
    """Decoherence then revival with a pre-entangled two-qubit environment.

    The system qubit, in an even superposition, meets a Bell pair: the
    first CNOT perfectly decoheres it, the second restores full
    coherence. Returns (stage label, rho_S, |rho_01|) for all three
    stages.
    """
    amps = np.zeros(8, dtype=complex)
    # (|0> + |1>)/sqrt(2) on the system times (|00> + |11>)/sqrt(2) on
    # the environment pair; index = s + 2*e1 + 4*e2
    for s in (0, 1):
        for e in (0, 1):
            amps[s + 2 * e + 4 * e] = 0.5
    state = QubitRegister(k=3, amplitudes=amps)

    stages = [("initial", partial_trace_to_system(state, 0))]
    state = apply_cnot(state, control=0, target=1)
    stages.append(("after_cnot_env1", partial_trace_to_system(state, 0)))
    state = apply_cnot(state, control=0, target=2)
    stages.append(("after_cnot_env2", partial_trace_to_system(state, 0)))
    return [(label, rho, rho.coherence) for label, rho in stages]
