"""The runs behind the CLI's `simulate` and `sweep`. `simulate_run` runs one
chain and hands on its rows, step by step, beside its summary. `parse_grid`
reads a grid of one or two parameters, and `sweep_rows` runs its points in
lexicographic order, one `SweepRow` each. The CLI's commands are these with
their options and output around them.
"""

import collections
import functools
import itertools
import math
import operator

from . import analysis, evolution, schedules
from ._frozen import Frozen
from .errors import CapacityError, UnclassifiableScheduleError, ValidationError, as_count
from .schedules import schedule_from_dict
from .unitary import EvolutionConfig

SWEEP_POINT_CAP = 10**6
# simulate_run hands on its rows this many at a time: its memory does not grow with n.
ROW_CHUNK = 4096
CONFIG_FIELDS = EvolutionConfig._fields
SWEEP_PARAMS = (*CONFIG_FIELDS, *dict.fromkeys(  # each schedule type's number fields, once
    f for cls in schedules.SCHEDULE_TYPES.values() for f in cls._fields if f != "overlaps"))


class SimulateRun(Frozen):
    """One run of n steps: its Zeno criterion, the branch oracle's survival
    (None without the oracle), and chunks, an iterator of the columns (steps,
    p_exact, p_second_order, abs_gap) of ROW_CHUNK rows at a time."""

    criterion: float
    p_oracle: object
    chunks: object


class SweepRow(Frozen):
    """One grid point's run: its step count, the family's eta_n, the exact and
    second-order survival after n steps, the criterion and the regime label."""

    n: int
    eta_n: float
    p_exact: float
    p_second_order: float
    criterion: float
    regime: str


def _grid_number(text, name, kind=float):
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"grid for {name}: {text!r} is not a finite {kind.__name__}")
    return value


def _linspace(start, stop, count):
    """count values from start to stop, i*step + start, the last set to stop."""
    div, delta = max(count - 1, 1), stop - start
    step = delta / div  # 0 for an empty or subnormal span: then divide first
    values = [(i * step if step else i / div * delta) + start for i in range(count)]
    return values[:-1] + [stop] if count > 1 else values


def _parse_grid(spec):
    if "=" not in spec:
        raise ValidationError(f"grid must look like param=values, got {spec!r}")
    name, _, body = spec.partition("=")
    name = name.strip()
    if name not in SWEEP_PARAMS:
        raise ValidationError(f"cannot sweep {name!r}; choose from {', '.join(SWEEP_PARAMS)}")
    body = body.strip()
    if body.startswith("lin:") or body.startswith("geom:"):
        scheme, *parts = body.split(":")
        if len(parts) != 3:
            raise ValidationError(f"{scheme} grid needs start:stop:count, got {body!r}")
        start, stop = _grid_number(parts[0], name), _grid_number(parts[1], name)
        count = _grid_number(parts[2], name, int)
        if count < 1:
            raise ValidationError(f"grid count must be >= 1, got {count}")
        if count > SWEEP_POINT_CAP:
            raise CapacityError(
                f"grid for {name} has {count} points, above the cap of {SWEEP_POINT_CAP}"
            )
        if scheme == "lin":
            values = _linspace(start, stop, count)
        elif start <= 0 or stop <= 0:
            raise ValidationError("geom grid endpoints must be positive")
        else:  # the exponents spaced alike, the endpoints kept exact
            inner = _linspace(math.log10(start), math.log10(stop), count)[1:-1]
            try:
                values = [start, *(10.0**x for x in inner), stop][:count]
            except OverflowError:  # 10^x past the float max: refused below
                values = [math.inf]
    else:
        values = [_grid_number(v, name) for v in body.split(",") if v.strip()]
        fractions = [v for v in values if name == "n" and not v.is_integer()]
        if fractions:  # rounded, two listed step counts could run as one point
            raise ValidationError(f"grid for n: {fractions[0]!r} is not a whole number")
    if not values:
        raise ValidationError(f"grid for {name} is empty")
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"grid for {name} leaves the float range: {body!r}")
    if name == "n":  # a range's values rounded, then read in the order the points run them
        return name, [as_count(name, v) for v in sorted(set(map(round, values)))]
    return name, sorted(set(values))


def parse_grid(specs):
    """{name: its sorted distinct values} of at most two specs "param=v1,v2,...",
    "param=lin:start:stop:count" or "param=geom:start:stop:count", param in
    SWEEP_PARAMS; a step count is read by errors.as_count before any point runs."""
    if isinstance(specs, str):
        raise ValidationError(f"grid specs are a list of strings, got one string {specs!r}")
    if len(specs) > 2:
        raise ValidationError("at most two grid parameters are supported")
    grid = dict(map(_parse_grid, specs))
    if len(grid) != len(specs):
        raise ValidationError(f"duplicate grid parameter {next(iter(grid))!r}")
    total = math.prod(map(len, grid.values()))
    if total > SWEEP_POINT_CAP:
        raise CapacityError(f"grid has {total} points, above the cap of {SWEEP_POINT_CAP}")
    return grid


def sweep_rows(grid, config, schedule):
    """The SweepRow of each point of grid, in lexicographic order. config holds
    the EvolutionConfig fields that grid does not sweep, schedule the other
    schedule fields in schedule_to_dict's form; a swept name in either raises
    ValidationError at the first row, before any point runs. So does a point whose
    eta_n, p_exact, p_second_order or criterion is not finite, after the rows before it."""
    for name in grid:
        if name in config or name in schedule:
            raise ValidationError(f"{name} is swept by the grid and also given; give it once")
    # A schedule depends only on the point's schedule values, so it is
    # built once per distinct set of them: once in all when none is swept.
    @functools.cache
    def schedule_for(swept):
        built = schedule_from_dict({**schedule, **dict(swept)})
        try:
            regime = analysis.classify_schedule(built).label.value
        except UnclassifiableScheduleError:
            regime = "numeric-only"
        return built, regime

    for combo in itertools.product(*grid.values()):
        point = tuple(zip(grid, combo))
        run = EvolutionConfig(**config, **{k: v for k, v in point if k in CONFIG_FIELDS})
        built, regime = schedule_for(tuple((k, v) for k, v in point if k not in CONFIG_FIELDS))
        # Only the last survival value is kept: the deque drops the others.
        p_exact = collections.deque(evolution.propagate_projected(
            run.step_unitary(), built, run.n), maxlen=1).pop()
        eta = schedules.family_eta(built, run.n)
        values = (eta, p_exact, analysis.second_order_partial(eta, run),
                  analysis.criterion_value(eta, run.n))
        if not all(map(math.isfinite, values)):
            raise ValidationError("survival is not finite at grid point " + ", ".join(
                f"{k} = {v!r}" for k, v in point))
        yield SweepRow(run.n, *values, regime)


def _require_finite(numbers, where, printed=0):
    """Raise ValidationError at the first non-finite number, at index i (an
    iterator is read no further), naming where(i) and the rows printed before it."""
    bad = itertools.compress(itertools.count(),
                             map(operator.not_, map(math.isfinite, numbers)))
    i = next(bad, None)
    if i is not None:
        done = f"{printed} rows were printed" if printed else "no rows printed"
        raise ValidationError(f"survival is not finite {where(i)}; {done}")


def simulate_run(config, schedule, oracle=False):
    """The SimulateRun of an EvolutionConfig under an OverlapSchedule, with the
    branch oracle's survival if oracle. A non-finite criterion, oracle value or
    second-order row, or one in the first chunk, raises ValidationError here; one
    in a later chunk raises as it is drawn, naming its step and the rows before it."""
    step = config.step_unitary()
    p_exact = evolution.propagate_projected(step, schedule, config.n)
    eta = schedules.family_eta(schedule, config.n)
    p_last = analysis.second_order_partial(eta, config)
    criterion = analysis.criterion_value(eta, config.n)
    p_second = analysis.second_order_series(eta, config)
    p_oracle = evolution.enumerate_branches(step, schedule, config.n) if oracle else None
    run = f"for omega = {config.omega!r}, T = {config.T!r}, n = {config.n}"

    # The exact column is finite and in [0, 1]: propagate_projected yields a
    # value that the overlaps' slack or rounding lifts past 1 as 1.0. The
    # second-order column never increases in the step, so it is finite if its
    # last row is; the rows are scanned only when that row is not.
    if not math.isfinite(p_last):
        _require_finite(analysis.second_order_series(eta, config),
                        lambda i: f"at step {i + 1} {run}")
    _require_finite([criterion, *([p_oracle] if oracle else [])],
                    lambda _: f"in the summary {run}")
    # Each chunk is checked again as it is made. The first is made here, so
    # that a fault in it stops the run before a caller opens its output.
    chunks = _row_chunks(p_exact, p_second, lambda step: f"at step {step} {run}")
    return SimulateRun(criterion, p_oracle, itertools.chain([next(chunks)], chunks))


def _row_chunks(p_exact, p_second, where):
    """The columns (steps, p_exact, p_second_order, abs_gap) of ROW_CHUNK
    rows at a time, each chunk checked finite before it is handed on;
    where(step) names a step."""
    for start in itertools.count(1, ROW_CHUNK):
        exact = list(itertools.islice(p_exact, ROW_CHUNK))
        if not exact:
            return
        second = list(itertools.islice(p_second, ROW_CHUNK))
        # A gap is finite only if both of its row's probabilities are.
        gaps = list(map(abs, map(operator.sub, exact, second)))
        _require_finite(gaps, lambda i: where(start + i), printed=start - 1)
        yield range(start, start + len(exact)), exact, second, gaps
