"""Single-step free-evolution unitaries for a two-level system.

The step matrix is parametrized as

    [[ a,                 b               ],
     [ -e^{i phi} conj(b), e^{i phi} conj(a) ]]

so its entries, row by row, are the step coefficients that
FreeEvolutionUnitary.coefficients gives: c_eq_0 (stay in 0), c_neq_0
(enter 0 from 1), c_neq_1 (enter 1 from 0), c_eq_1 (stay in 1).
"""

from __future__ import annotations

import cmath
import math

from ._frozen import Frozen
from .errors import ValidationError, as_count, as_real, real_number, square

ROW_NORM_TOL = 1e-9


class FreeEvolutionUnitary(Frozen):
    a: complex
    b: complex
    phi: float = 0.0

    def __post_init__(self):
        # Not errors.as_real's range: a phase may be negative, and its message is pinned.
        if not math.isfinite(real_number("phi", self.phi)):
            raise ValidationError(f"phi must be finite, got {self.phi!r}")
        norm = square(abs(self.a)) + square(abs(self.b))
        if not abs(norm - 1.0) <= ROW_NORM_TOL:
            raise ValidationError(
                f"|a|^2 + |b|^2 = {norm!r} deviates from 1 by {abs(norm - 1.0):.3e}"
            )

    @property
    def coefficients(self) -> tuple[complex, complex, complex, complex]:
        """(c_eq_0, c_neq_0, c_neq_1, c_eq_1): the step matrix's entries, row by row."""
        a, b = self.a, self.b
        phase = cmath.exp(1j * self.phi)
        return (a, b, -phase * b.conjugate(), phase * a.conjugate())


def make_rabi_unitary(omega: float, delta: float) -> FreeEvolutionUnitary:
    """Sigma_x rotation by angle omega*delta: a = cos, b = -i sin, phi = 0.

    The off-diagonal weight satisfies |b|^2 = sin^2(omega*delta), i.e.
    V*delta^2 + O(delta^4) with V = omega^2.
    """
    theta = as_real("omega", omega) * as_real("delta", delta)
    if theta == math.inf:
        raise ValidationError(
            f"omega = {omega!r} and delta = {delta!r} put the angle omega*delta "
            "beyond the float range"
        )
    return FreeEvolutionUnitary(a=math.cos(theta), b=-1j * math.sin(theta), phi=0.0)


def make_general_unitary(a: complex, b: complex, phi: float) -> FreeEvolutionUnitary:
    """Validated (a, b, phi) constructor.

    Inputs whose row norm deviates from 1 by more than 1e-9 are rejected
    (by FreeEvolutionUnitary); anything closer is renormalized so the
    assembled matrix is unitary to machine precision.
    """
    u = FreeEvolutionUnitary(a=complex(a), b=complex(b), phi=float(phi))
    norm = math.sqrt(abs(u.a) ** 2 + abs(u.b) ** 2)
    return FreeEvolutionUnitary(a=u.a / norm, b=u.b / norm, phi=u.phi)


class EvolutionConfig(Frozen):
    """Run parameters: Rabi frequency omega, total time T, step count n."""

    omega: float
    T: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", as_count("n", self.n))
        as_real("T", self.T, strict=True)
        as_real("omega", self.omega)
        if not math.isfinite(self.vd2):
            raise ValidationError(
                f"omega = {self.omega!r} and T = {self.T!r} put V = omega^2 or "
                "V*delta^2 beyond the float range"
            )

    @property
    def V(self) -> float:
        return square(self.omega)

    @property
    def delta(self) -> float:
        return self.T / self.n

    @property
    def vd2(self) -> float:
        """The step weight V*delta^2 of the second order 1 - 2*S*V*delta^2."""
        return self.V * square(self.delta)

    def step_unitary(self) -> FreeEvolutionUnitary:
        return make_rabi_unitary(self.omega, self.delta)
