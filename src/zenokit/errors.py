"""Exception types shared across the package, and the one refusal of a
parameter that nothing reads."""


class ValidationError(ValueError):
    """A parameter or input violates a documented precondition."""


class CapacityError(RuntimeError):
    """A request exceeds a hard size cap (branch oracle, sweep grid)."""


class UnclassifiableScheduleError(ValidationError):
    """The schedule has no analytic regime; use the numeric probe instead."""


def require_read(what: str, read, given) -> None:
    """Refuse the first of the names `given` that is not in `read`, the
    names that `what` (a schedule type or a physical model) reads."""
    for name in given:
        if name not in read:
            raise ValidationError(f"the {what} does not read {name}")
