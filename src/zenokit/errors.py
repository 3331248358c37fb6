"""Exception types shared across the package, and the package's one owner
of four rules: the refusal of a parameter that nothing reads, the reading
of a step count, the reading of a real parameter (its type, and its range
where the parameter has no range of its own), and the square that cannot
raise."""

import math
import numbers
import operator
import sys


class ValidationError(ValueError):
    """A parameter or input violates a documented precondition."""


class CapacityError(RuntimeError):
    """A request exceeds a hard size cap (branch oracle, sweep grid, step count)."""


class UnclassifiableScheduleError(ValidationError):
    """The schedule has no analytic regime; use the numeric probe instead."""


def require_read(what: str, read, given) -> None:
    """Refuse the first of the names `given` that is not in `read`, the
    names that `what` (a schedule type or a physical model) reads."""
    for name in given:
        if name not in read:
            raise ValidationError(f"the {what} does not read {name}")


def as_count(name: str, value, least: int = 1) -> int:
    """value as an int, for a step count: an int or a numpy integer, not a
    float, even an integral one; at least `least` and at most sys.maxsize."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    if value > sys.maxsize:
        raise CapacityError(f"{name} = {value} is above the cap of sys.maxsize = {sys.maxsize}")
    return value


def real_number(name: str, value):
    """value unchanged if it is a real number (an int, a float or a numpy
    one); a str, None or complex raises ValidationError. The type half of
    as_real, for a parameter that checks its own range."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return value


def as_real(name: str, value, strict: bool = False):
    """value unchanged, for a real parameter: a real number (real_number),
    finite and >= 0, or > 0 when strict."""
    if not (math.isfinite(real_number(name, value)) and (value > 0 if strict else value >= 0)):
        raise ValidationError(f"{name} must be finite and {'>' if strict else '>='} 0, got {value}")
    return value


def square(x: float) -> float:
    """x ** 2, or inf where float ** raises OverflowError (x * x would give
    inf there, but rounds differently from x ** 2 elsewhere)."""
    try:
        return x**2
    except OverflowError:
        return math.inf
