"""Exception types shared across the package, the one refusal of a
parameter that nothing reads, and the one reading of a step count."""

import operator


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


def as_count(name: str, value) -> int:
    """value as an int, for a step count: an int or a numpy integer, not a
    float, even an integral one."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
