"""Decoherence schedules: the per-step environment overlap law.

A schedule fixes, for a run of n steps, the overlap <E_0|E_1> that each
step's environment realizes. The family variants (constant, power-law,
exponential) realize a single real eta shared by all n steps; an explicit
schedule carries one complex overlap per step.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

from .errors import ValidationError

_MODULUS_SLACK = 1e-12


def _finite_positive(*values: float) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


@dataclass(frozen=True)
class ConstantOverlap:
    eta: complex

    def __post_init__(self):
        if not cmath.isfinite(self.eta):
            raise ValidationError(f"eta must be finite, got {self.eta}")
        if abs(self.eta) > 1.0 + _MODULUS_SLACK:
            raise ValidationError(f"|eta| = {abs(self.eta):.6g} exceeds 1")


@dataclass(frozen=True)
class PowerLawOverlap:
    """eta_n = 1 - alpha / n**beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not _finite_positive(self.alpha, self.beta):
            raise ValidationError(
                f"power-law schedule needs finite alpha > 0 and beta > 0, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class ExponentialOverlap:
    """eta_n = 1 - alpha * exp(-beta * n)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not _finite_positive(self.alpha, self.beta):
            raise ValidationError(
                f"exponential schedule needs finite alpha > 0 and beta > 0, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class ExplicitOverlaps:
    overlaps: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "overlaps", tuple(complex(o) for o in self.overlaps))
        for i, o in enumerate(self.overlaps):
            if not cmath.isfinite(o):
                raise ValidationError(f"overlap {i} is not finite: {o}")
            if abs(o) > 1.0 + _MODULUS_SLACK:
                raise ValidationError(f"overlap {i} has modulus {abs(o):.6g} > 1")


OverlapSchedule = Union[ConstantOverlap, PowerLawOverlap, ExponentialOverlap, ExplicitOverlaps]


def family_eta(schedule: OverlapSchedule, n: int) -> float:
    """The shared real overlap a family schedule realizes for an n-step run.

    For an explicit schedule there is no single eta; the mean modulus is
    returned as a representative value for second-order comparisons.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if isinstance(schedule, ConstantOverlap):
        return abs(schedule.eta)
    if isinstance(schedule, PowerLawOverlap):
        eta = 1.0 - schedule.alpha / n**schedule.beta
        if eta < 0:
            raise ValidationError(
                f"power-law overlap 1 - {schedule.alpha}/{n}^{schedule.beta} = "
                f"{eta:.6g} is negative at n={n}"
            )
        return eta
    if isinstance(schedule, ExponentialOverlap):
        eta = 1.0 - schedule.alpha * math.exp(-schedule.beta * n)
        if eta < 0:
            raise ValidationError(
                f"exponential overlap is negative at n={n} "
                f"(alpha={schedule.alpha}, beta={schedule.beta})"
            )
        return eta
    if isinstance(schedule, ExplicitOverlaps):
        if not schedule.overlaps:
            raise ValidationError("explicit schedule is empty")
        return sum(abs(o) for o in schedule.overlaps) / len(schedule.overlaps)
    raise ValidationError(f"unknown schedule type {type(schedule).__name__}")


def realize(schedule: OverlapSchedule, n: int) -> tuple[complex, ...]:
    """Per-step overlaps for an n-step run."""
    if isinstance(schedule, ExplicitOverlaps):
        if len(schedule.overlaps) != n:
            raise ValidationError(
                f"explicit schedule has {len(schedule.overlaps)} overlaps "
                f"but the run has {n} steps"
            )
        return schedule.overlaps
    if isinstance(schedule, ConstantOverlap):
        return (complex(schedule.eta),) * n
    return (complex(family_eta(schedule, n)),) * n
