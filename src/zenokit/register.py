"""Small state-vector register with CNOT and partial trace.

Just enough machinery for the entangled-environment recoherence demo and
for cross-checking the projected chain against a literal simulation.
Qubit 0 is the system; amplitude ordering is little-endian (bit j of the
amplitude index is the state of qubit j).
"""

from __future__ import annotations

import contextlib
import math
import numbers

from ._frozen import Frozen
from .errors import ValidationError, square

MAX_QUBITS = 12
_TOL = 1e-12


def _complex_tuple(values, what: str) -> tuple[complex, ...]:
    """`values` as a tuple of complex, if it is a sequence of numbers."""
    if not isinstance(values, (str, bytes)):
        with contextlib.suppress(TypeError):
            items = tuple(values)
            if all(isinstance(z, numbers.Number) for z in items):
                return tuple(map(complex, items))
    raise ValidationError(f"{what} must be a sequence of numbers, got {values!r}")


class QubitRegister(Frozen):
    k: int
    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        if not 1 <= self.k <= MAX_QUBITS:
            raise ValidationError(f"qubit count {self.k} outside 1..{MAX_QUBITS}")
        amps = _complex_tuple(self.amplitudes, "amplitudes")
        if len(amps) != 2**self.k:
            raise ValidationError(f"expected {2**self.k} amplitudes, got {len(amps)}")
        norm = sum(square(abs(z)) for z in amps)
        if not abs(norm - 1.0) <= _TOL:
            raise ValidationError(f"squared norm {norm!r} deviates from 1")
        object.__setattr__(self, "amplitudes", amps)


class DensityMatrix2(Frozen):
    """2x2 reduced density matrix, read as matrix[i][j]; Hermitian, unit trace, PSD."""

    matrix: tuple[tuple[complex, complex], tuple[complex, complex]]

    def __post_init__(self):
        try:
            m = tuple(_complex_tuple(row, "a matrix row") for row in self.matrix)
        except TypeError:
            m = ()
        if len(m) != 2 or any(len(row) != 2 for row in m):
            raise ValidationError(f"expected a 2x2 matrix, got {self.matrix!r}")
        (m00, m01), (m10, m11) = m
        if abs(m10 - m01.conjugate()) > _TOL:
            raise ValidationError("matrix is not Hermitian")
        if abs(m00.imag) > _TOL or abs(m11.imag) > _TOL:
            raise ValidationError("diagonal is not real")
        if not abs((m00 + m11).real - 1.0) <= _TOL:
            raise ValidationError(f"trace {m00 + m11!r} deviates from 1")
        # the smaller eigenvalue of the Hermitian part, in closed form
        half_gap = math.hypot((m00.real - m11.real) / 2, abs(m01 + m10.conjugate()) / 2)
        if not (m00.real + m11.real) / 2 - half_gap >= -_TOL:
            raise ValidationError("matrix has a negative eigenvalue")
        object.__setattr__(self, "matrix", m)

    @property
    def coherence(self) -> float:
        return abs(self.matrix[0][1])


def apply_cnot(state: QubitRegister, control: int, target: int) -> QubitRegister:
    """Controlled-NOT: flip the target bit wherever the control bit is 1."""
    if control == target:
        raise ValidationError("control and target must differ")
    for name, q in (("control", control), ("target", target)):
        if not 0 <= q < state.k:
            raise ValidationError(f"{name} qubit {q} outside 0..{state.k - 1}")
    amps = state.amplitudes
    flipped = (i ^ (1 << target) if i >> control & 1 else i for i in range(2**state.k))
    return QubitRegister(k=state.k, amplitudes=tuple(amps[i] for i in flipped))


def partial_trace_to_system(state: QubitRegister, system_index: int = 0) -> DensityMatrix2:
    """Reduced density matrix of one qubit, tracing out all the others."""
    if state.k < 2:
        raise ValidationError("partial trace needs at least 2 qubits")
    if not 0 <= system_index < state.k:
        raise ValidationError(f"system qubit {system_index} outside 0..{state.k - 1}")
    # psi[s]: the amplitudes with the system qubit at s, in the others' order
    psi = [[z for i, z in enumerate(state.amplitudes) if (i >> system_index & 1) == s]
           for s in (0, 1)]
    return DensityMatrix2(matrix=tuple(
        tuple(sum(x * y.conjugate() for x, y in zip(row, col)) for col in psi)
        for row in psi))


def recoherence_demo() -> list[tuple[str, DensityMatrix2, float]]:
    """Decoherence then revival with a pre-entangled two-qubit environment.

    The system qubit, in an even superposition, meets a Bell pair: the
    first CNOT perfectly decoheres it, the second restores full
    coherence. Returns (stage label, rho_S, |rho_01|) for all three
    stages.
    """
    amps = [0j] * 8
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
