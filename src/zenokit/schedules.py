"""Decoherence schedules: the per-step environment overlap law.

A schedule fixes, for a run of n steps, the overlap <E_0|E_1> that each
step's environment realizes. The family variants (constant, power-law,
exponential) realize a single real eta shared by all n steps; an explicit
schedule carries one complex overlap per step.

schedule_to_dict and schedule_from_dict are the one JSON form of a
schedule, {"type": ..., <fields>}, that the CLI prints and reads.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections.abc import Iterator

from ._frozen import Frozen
from .errors import ValidationError, as_count, require_read

_MODULUS_SLACK = 1e-12


def _check_overlap(name: str, z: complex) -> None:
    """Refuse an overlap that is not finite or whose modulus exceeds 1 by
    more than the rounding slack; name says which overlap it is."""
    if not cmath.isfinite(z):
        raise ValidationError(f"{name} must be finite, got {z}")
    if abs(z) > 1.0 + _MODULUS_SLACK:
        raise ValidationError(f"{name} has modulus {abs(z):.6g} > 1")


class ConstantOverlap(Frozen):
    """One real eta in [0, 1] for every step; an eta in the rounding slack
    above 1 is stored as 1.0."""

    eta: float

    def __post_init__(self):
        _check_overlap("eta", self.eta)
        eta = complex(self.eta)
        if eta.imag or eta.real < 0:
            raise ValidationError(f"eta must be a real overlap in [0, 1], got {self.eta}")
        object.__setattr__(self, "eta", min(eta.real + 0.0, 1.0))  # -0.0 as 0.0


class _Family(Frozen):
    """A family schedule's two parameters, both finite and > 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.alpha, self.beta)):
            raise ValidationError(
                f"{_TYPE_NAMES[type(self)]} schedule needs finite alpha > 0 and beta > 0, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )


class PowerLawOverlap(_Family):
    """eta_n = 1 - alpha / n**beta."""


class ExponentialOverlap(_Family):
    """eta_n = 1 - alpha * exp(-beta * n)."""


class ExplicitOverlaps(Frozen):
    overlaps: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "overlaps", tuple(complex(o) for o in self.overlaps))
        for i, o in enumerate(self.overlaps):
            _check_overlap(f"overlap {i}", o)


OverlapSchedule = ConstantOverlap | PowerLawOverlap | ExponentialOverlap | ExplicitOverlaps


def family_eta(schedule: OverlapSchedule, n: int) -> float:
    """The shared real overlap a family schedule realizes for an n-step run.

    An explicit schedule has no single eta; its mean modulus (summed by
    math.fsum, which rounds alike on every Python) stands in for it, capped
    at 1, since _check_overlap admits moduli up to 1 + 1e-12.
    """
    n = as_count("n", n)
    if isinstance(schedule, ConstantOverlap):
        return schedule.eta
    if isinstance(schedule, PowerLawOverlap):
        try:
            decay = schedule.alpha / n**schedule.beta
        except OverflowError:  # n^beta is past the floats; its logarithm is not
            decay = math.exp(math.log(schedule.alpha) - schedule.beta * math.log(n))
        eta = 1.0 - decay
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
        return min(math.fsum(map(abs, schedule.overlaps)) / len(schedule.overlaps), 1.0)
    raise ValidationError(f"unknown schedule type {type(schedule).__name__}")


def realize(schedule: OverlapSchedule, n: int) -> Iterator[complex]:
    """An iterator over the per-step overlaps of an n-step run.

    The schedule is checked against n when realize is called, not when
    the iterator is read.
    """
    n = as_count("n", n)
    if isinstance(schedule, ExplicitOverlaps):
        if len(schedule.overlaps) != n:
            raise ValidationError(
                f"explicit schedule has {len(schedule.overlaps)} overlaps "
                f"but the run has {n} steps"
            )
        return iter(schedule.overlaps)
    return itertools.repeat(complex(family_eta(schedule, n)), n)


SCHEDULE_TYPES = {
    "constant": ConstantOverlap,
    "power-law": PowerLawOverlap,
    "exponential": ExponentialOverlap,
    "explicit": ExplicitOverlaps,
}
_TYPE_NAMES = {cls: name for name, cls in SCHEDULE_TYPES.items()}


def _to_json(value):
    """A real number as itself, a complex one as a number when its
    imaginary part is 0 and as [re, im] otherwise; tuples element-wise."""
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, complex):
        return value.real if value.imag == 0 else [value.real, value.imag]
    return value


def schedule_to_dict(schedule: OverlapSchedule) -> dict:
    """{"type": ..., <fields>}: the JSON form that schedule_from_dict reads back."""
    out = {"type": _TYPE_NAMES[type(schedule)]}
    for name in schedule._fields:
        out[name] = _to_json(getattr(schedule, name))
    return out


def _number(kind, name: str, value):
    """kind(value) for a number or a numeric string, else a ValidationError
    naming the field."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return kind(value)
        except ValueError:
            pass
    raise ValidationError(f"{name} must be a number, got {value!r}")


_real = functools.partial(_number, float)


def _overlap(name: str, value) -> complex | float:
    """A number, a complex string ("0.9+0.1j" or "(0.9+0.1j)") or an
    [re, im] pair; a float when the imaginary part is 0."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        z = complex(_real(f"{name}[0]", value[0]), _real(f"{name}[1]", value[1]))
    else:
        z = _number(complex, name, value)
    return z.real if z.imag == 0 else z


def _overlaps(name: str, value) -> tuple[complex | float, ...]:
    """A list of overlaps, or one string of comma-separated overlaps."""
    if isinstance(value, str):
        value = value.split(",")
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{name} must be a list of overlaps, got {value!r}")
    return tuple(_overlap(f"{name}[{i}]", v) for i, v in enumerate(value))


_DECODERS = {"eta": _overlap, "alpha": _real, "beta": _real, "overlaps": _overlaps}


def schedule_from_dict(data: dict) -> OverlapSchedule:
    """The schedule a {"type": ..., <fields>} object describes.

    Reads what schedule_to_dict writes, and also numbers and overlaps given
    as strings. A field the type does not read is refused, and so is a
    missing or bad one: each raises ValidationError naming it.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"a schedule must be a JSON object, got {data!r}")
    kind = data.get("type")
    cls = SCHEDULE_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValidationError(
            f"unknown schedule type {kind!r}; choose from {', '.join(SCHEDULE_TYPES)}"
        )
    require_read(f"{kind} schedule", ["type", *cls._fields], data)
    values = {}
    for name in cls._fields:
        if data.get(name) is None:
            raise ValidationError(f"{kind} schedule needs {name}")
        values[name] = _DECODERS[name](name, data[name])
    return cls(**values)
