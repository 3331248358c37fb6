"""Physical scenarios mapped onto decoherence schedules.

This is the only module that touches SI constants; everything else works
in natural units with hbar = 1.
"""

from __future__ import annotations

import math

from ._frozen import Frozen
from .errors import ValidationError, as_real, square
from .schedules import PowerLawOverlap

HBAR = 1.054571817e-34  # J*s, CODATA 2018

# At m = 1e-26 kg, sigma = 1e-10 m the validity-time formula gives
# ~2.68e-12 s; a commonly quoted estimate of 4e-13 s for the same inputs
# is inconsistent with the formula. Surfaced by the CLI so downstream
# comparisons are not silently off by ~7x.
VALIDITY_TIME_DISCREPANCY_NOTE = (
    "the 2*sqrt(2)*m*sigma^2/hbar formula gives ~2.68e-12 s at "
    "m=1e-26 kg, sigma=1e-10 m; the commonly quoted 4e-13 s does not "
    "follow from it"
)


def _derived(what: str, compute, **inputs: float) -> float:
    """compute(), which must be a finite float > 0; otherwise a
    ValidationError naming the inputs that put `what` out of that range."""
    try:
        value = compute()
    except OverflowError:  # float ** raises where * gives inf
        value = math.inf
    if not (math.isfinite(value) and value > 0):
        given = ", ".join(f"{name} = {v!r}" for name, v in inputs.items())
        raise ValidationError(f"{given} put {what} outside the positive float range")
    return value


class FreeParticleParams(Frozen):
    m: float
    sigma: float
    hbar: float = HBAR

    def __post_init__(self):
        for name in self._fields:
            as_real(name, getattr(self, name), strict=True)


class PointerModelParams(Frozen):
    """Coupling velocity v, environment packet width sigma, interaction-time
    ratio c_ratio, total time T."""

    v: float
    sigma: float
    c_ratio: float
    T: float

    def __post_init__(self):
        for name in self._fields:
            as_real(name, getattr(self, name), strict=True)


class BrownianModelParams(Frozen):
    """Diffusion constant D (units 1/sqrt(time), so D^2 * delta is
    dimensionless) and total time T."""

    D: float
    T: float

    def __post_init__(self):
        as_real("D", self.D)
        as_real("T", self.T, strict=True)


def free_particle_variance(p: FreeParticleParams) -> float:
    """Energy variance hbar^4 / (8 m^2 sigma^4) of a Gaussian wave packet
    under the kinetic Hamiltonian."""
    return _derived(
        "hbar^4/(8 m^2 sigma^4)",
        lambda: p.hbar**4 / (8.0 * p.m**2 * p.sigma**4),
        m=p.m, sigma=p.sigma, hbar=p.hbar,
    )


def quadratic_validity_time(p: FreeParticleParams) -> float:
    """Time scale 2*sqrt(2)*m*sigma^2/hbar below which the quadratic
    short-time decay is valid; cross-checked against hbar/sqrt(Var)."""
    # The variance check names the inputs before sigma**2 below can overflow.
    alt = p.hbar / math.sqrt(free_particle_variance(p))
    t_c = 2.0 * math.sqrt(2.0) * p.m * p.sigma**2 / p.hbar
    if not abs(t_c - alt) <= 1e-12 * t_c:
        raise ValidationError(
            f"validity time {t_c!r} disagrees with hbar/sqrt(Var) = {alt!r}; "
            "m, sigma or hbar is beyond the float range"
        )
    return t_c


def gaussian_pointer_overlap(v: float, delta: float, sigma: float) -> float:
    """Overlap exp(-(v*delta)^2 / sigma^2) of two Gaussian pointer states
    displaced by +-v*delta. Quadratic in delta for v*delta << sigma."""
    as_real("v", v, strict=True)
    as_real("sigma", sigma, strict=True)
    if not delta >= 0:  # not errors.as_real: an infinite delta is an overlap of 0
        raise ValidationError(f"delta must be >= 0, got {delta}")
    return math.exp(-square(v * delta / sigma))


def gaussian_model_schedule(p: PointerModelParams) -> PowerLawOverlap:
    """Power-law schedule induced by the pointer model.

    With interaction time c*T/n per step, 1 - eta_n ~= (v*c*T/sigma)^2 / n^2,
    i.e. alpha = (v*c*T/sigma)^2 and beta = 2: always the free-evolution
    regime, whatever the coupling strength.
    """
    alpha = _derived(
        "alpha = (v*c_ratio*T/sigma)^2",
        lambda: (p.v * p.c_ratio * p.T / p.sigma) ** 2,
        v=p.v, sigma=p.sigma, c_ratio=p.c_ratio, T=p.T,
    )
    return PowerLawOverlap(alpha=alpha, beta=2.0)


def brownian_schedule(p: BrownianModelParams) -> PowerLawOverlap:
    """Power-law schedule induced by Brownian diffusion of the records.

    From |<E(delta)|E(0)>| ~= 1 - D^2*delta/2 with delta = T/n:
    alpha = D^2*T/2 and beta = 1, the intermediate family. Large D drives
    the limit toward Zeno freezing, small D toward free evolution.
    """
    if p.D == 0:
        raise ValidationError("D = 0 realizes no decoherence; no schedule to build")
    alpha = _derived("alpha = D^2*T/2", lambda: p.D**2 * p.T / 2.0, D=p.D, T=p.T)
    return PowerLawOverlap(alpha=alpha, beta=1.0)
