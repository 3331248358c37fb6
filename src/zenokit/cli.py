"""Command-line surface: simulate, classify, sweep, physical, recohere.

Exit codes: 0 success, 2 invalid parameters, 3 capacity exceeded.
Parameters come from flags, then a JSON config file (--config), then the
command's defaults; a config key that the command does not take exits 2.
Every option is declared once, in PARAMS, and a command lists the ones it takes.
Output is CSV or JSON, to stdout or a file, and is deterministic:
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import operator
import sys
import warnings
from typing import NamedTuple

import click

from . import analysis, evolution, physical, register
from .errors import CapacityError, UnclassifiableScheduleError, ValidationError, require_read
from .schedules import SCHEDULE_TYPES, family_eta, schedule_from_dict, schedule_to_dict
from .unitary import EvolutionConfig

SWEEP_POINT_CAP = 10**6
# simulate formats, checks and writes its rows this many at a time, so its
# memory does not grow with n.
ROW_CHUNK = 4096
CONFIG_FIELDS = tuple(field.name for field in dataclasses.fields(EvolutionConfig))
REQUIRED = object()


class Param(NamedTuple):
    """One option: its type, its default (REQUIRED for none) and its help.

    The flag is the name with "--" in front and "_" as "-"; the config
    file key is the name. A command may override the default.
    """

    type: object = float
    default: object = None
    help: str = ""
    multiple: bool = False


PARAMS = {
    "grid": Param(str, (), "param=v1,v2,... or param=lin:start:stop:count or "
                           "param=geom:start:stop:count; at most two.", multiple=True),
    "omega": Param(float, 1.0, "Rabi angular frequency."),
    "T": Param(float, 1.0, "Total duration."),
    "n": Param(int, 1, "Number of steps."),
    "V": Param(float, None, "Hamiltonian variance; omega^2 if --omega is given instead."),
    "n_max": Param(int, 2**20, "Largest n probed numerically (default 2^20)."),
    "oracle": Param(bool, False, "Cross-check against the branch-word oracle "
                                 f"(n <= {evolution.ORACLE_MAX_STEPS})."),
    "schedule": Param(click.Choice(list(SCHEDULE_TYPES)), "constant",
                      "Overlap schedule family."),
    "eta": Param(float, None, "Constant overlap in [0, 1]."),
    "alpha": Param(float, None, "Family coefficient (power-law, exponential)."),
    "beta": Param(float, None, "Family exponent or rate (power-law, exponential)."),
    "overlaps": Param(str, None, "Comma-separated per-step overlaps (explicit schedule)."),
    "m": Param(float, REQUIRED, "Mass in kg."),
    "sigma": Param(float, REQUIRED, "Packet width in m."),
    "hbar": Param(float, physical.HBAR, "Reduced Planck constant in J*s."),
    "v": Param(float, REQUIRED, "Coupling velocity in m/s."),
    "c_ratio": Param(float, 1.0, "Interaction-time ratio of the pointer model."),
    "D": Param(float, REQUIRED, "Diffusion constant."),
    "format": Param(click.Choice(["csv", "json"]), "json", "Output format."),
    # Flag only: never read from the config file.
    "output": Param(click.Path(dir_okay=False), None,
                    "Write to this path instead of stdout."),
    "config": Param(click.Path(exists=True, dir_okay=False), None,
                    "JSON file with default parameter values."),
}
SCHEDULE_FIELDS = tuple(dict.fromkeys(  # each schedule type's fields, each once
    field.name for cls in SCHEDULE_TYPES.values() for field in dataclasses.fields(cls)))
SCHEDULE_OPTIONS = ("schedule", *SCHEDULE_FIELDS)
SWEEP_PARAMS = (*CONFIG_FIELDS, *(f for f in SCHEDULE_FIELDS if f != "overlaps"))


def _read_config(path, names):
    """The config file's values, converted as their flags would be (the schedule's
    by schedule_from_dict); a key that is not one of names exits 2."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError("config file must hold a JSON object")
    require_read(f"config file of {click.get_current_context().info_name}",
                 [k for k in names if k not in ("output", "config")], data)
    return {k: v if k in SCHEDULE_OPTIONS else _convert(k, v)
            for k, v in data.items() if v is not None}


class Options(collections.ChainMap):
    """A command's values: the flags given, then the config file, then the defaults."""

    def __missing__(self, name):
        raise ValidationError(f"missing required parameter: {name}")

    def given(self, name):
        """Whether a flag or the config file set name, not a default."""
        return name in self.maps[0] or name in self.maps[1]

    def schedule(self):
        """The schedule object --schedule (or the config's "schedule", a type
        name or a whole schedule object) gives, with --eta, --alpha, --beta
        and --overlaps laid over it; schedule_from_dict converts its fields
        and refuses one that the schedule type does not read."""
        kind = self["schedule"]
        fields = dict(kind) if isinstance(kind, dict) else {"type": kind}
        fields.update((k, self[k]) for k in SCHEDULE_FIELDS if self.given(k))
        return fields


def _convert(name, value):
    param = PARAMS[name]
    ptype = click.types.convert_type(param.type)
    try:
        # click would read true as 1 and 2.7 as 2, where the flags refuse both
        if (isinstance(value, bool) and param.type is not bool
                or isinstance(value, float) and param.type is int and not value.is_integer()):
            raise TypeError
        if not param.multiple:
            return ptype.convert(value, None, None)
        if not isinstance(value, list):
            raise TypeError
        return tuple(ptype.convert(v, None, None) for v in value)
    except (click.BadParameter, TypeError, ValueError, OverflowError):
        kind = f"list of {ptype.name}" if param.multiple else ptype.name
        raise ValidationError(f"config {name}: {value!r} is not a valid {kind}") from None


def _takes(*names, **defaults):
    """Give a click command the options `names` from PARAMS, in that order.

    The command is called with the Options of one invocation, whose
    defaults are PARAMS' with `defaults` laid over them, and returns
    the text to print (or write to --output), as one string or an iterable
    of strings. Invalid parameters exit 2, capacity errors 3. A warning is
    shown as one line, "warning: <message>", on stderr; the warning filters
    (-W, PYTHONWARNINGS) still decide whether it is shown at all, and a
    warning that they turn into an error exits 2 like an invalid parameter.
    """
    defaults = {name: value for name in names
                if (value := defaults.get(name, PARAMS[name].default)) is not REQUIRED}

    def decorate(fn):
        @functools.wraps(fn)
        def run(**flags):
            # entering also clears the record of warnings already shown, so
            # each invocation shows its own
            with warnings.catch_warnings():
                warnings.showwarning = _show_warning
                try:
                    config = _read_config(flags.pop("config", None), names)
                    output = flags.pop("output")
                    flags = {k: v for k, v in flags.items() if v is not None and v != ()}
                    _emit(fn(Options(flags, config, defaults)), output)
                except (CapacityError, ValidationError, Warning) as exc:
                    click.echo(f"error: {exc}", err=True)
                    sys.exit(3 if isinstance(exc, CapacityError) else 2)

        for name in reversed(names):
            param = PARAMS[name]
            run = click.option("--" + name.replace("_", "-"), name, type=param.type,
                               default=None, is_flag=param.type is bool,
                               multiple=param.multiple, help=param.help)(run)
        return run

    return decorate


def _show_warning(message, category, filename, lineno, file=None, line=None):
    click.echo(f"warning: {message}", err=True)


def _emit(text, output):
    chunks = [text] if isinstance(text, str) else text
    if output is None:
        # Each chunk is flushed, so rows already written precede a later error;
        # the output is numbers and fixed text, with no ANSI codes to strip.
        for chunk in chunks:
            sys.stdout.write(chunk)
            sys.stdout.flush()
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        except OSError as exc:
            raise ValidationError(f"cannot write {output}: {exc.strerror or exc}") from exc


def _json(obj):
    return json.dumps(obj, indent=2) + "\n"


def _csv(header, rows):
    buf = io.StringIO()
    csv.writer(buf).writerows((header, *rows))
    return buf.getvalue()


def _require_finite(numbers, where, printed=0):
    """Refuse a result with a non-finite number.

    numbers may be an iterator; it is read up to its first non-finite
    number, whose index i where(i) turns into its place and run in the
    ValidationError. The message also says how many rows were printed.
    """
    bad = itertools.compress(itertools.count(),
                             map(operator.not_, map(math.isfinite, numbers)))
    i = next(bad, None)
    if i is not None:
        done = f"{printed} rows were printed" if printed else "no rows printed"
        raise ValidationError(f"survival is not finite {where(i)}; {done}")


# The text before, between and after the four cells (step, p_exact,
# p_second_order, abs_gap) of one of simulate's rows: one element of the
# "series" list as json.dumps(indent=2) nests it, and one csv.writer line.
_JSON_SERIES_ROW = ('    {\n      "step": ', ',\n      "p_exact": ',
                    ',\n      "p_second_order": ', ',\n      "abs_gap": ', '\n    }')
_CSV_ROW = ("", ",", ",", ",", ",\r\n")


@click.group()
def main():
    """Discrete free-evolution vs. decoherence toolkit for a qubit."""


@main.command()
@_takes("omega", "T", "n", "oracle", *SCHEDULE_OPTIONS, "format", "output", "config",
        omega=REQUIRED, T=REQUIRED, n=REQUIRED, format="csv")
def simulate(opts):
    """Exact and second-order survival probability of one run."""
    config = EvolutionConfig(omega=opts["omega"], T=opts["T"], n=opts["n"])
    schedule = schedule_from_dict(opts.schedule())
    oracle, fmt = opts["oracle"], opts["format"]

    step = config.step_unitary()
    p_exact = evolution.propagate_projected(step, schedule, config.n)
    eta = family_eta(schedule, config.n)
    p_last, criterion = analysis.second_order_with_criterion(eta, config)
    p_second = analysis.second_order_series(eta, config)
    p_oracle = evolution.enumerate_branches(step, schedule, config.n) if oracle else None
    run = f"for omega = {config.omega!r}, T = {config.T!r}, n = {config.n}"

    # The exact column is finite, though the overlaps' 1e-12 modulus slack and
    # rounding can both make the chain's norm grow past 1. The second-order
    # column never increases in the step, so it is finite if its last row
    # is; the rows are scanned only when that row is not.
    if not math.isfinite(p_last):
        _require_finite(analysis.second_order_series(eta, config),
                        lambda i: f"at step {i + 1} {run}")
    _require_finite([criterion, *([p_oracle] if oracle else [])],
                    lambda _: f"in the summary {run}")
    # Each chunk is checked again as it is made. The first is made here,
    # so that a fault in it stops the run before --output is opened.
    chunks = _row_chunks(p_exact, p_second, lambda step: f"at step {step} {run}")
    chunks = itertools.chain([next(chunks)], chunks)

    def summary(p_exact, p_second_order):
        values = {"p_exact": p_exact, "p_second_order": p_second_order,
                  "criterion": criterion}
        if oracle:
            values.update(p_oracle=p_oracle, oracle_abs_gap=abs(p_exact - p_oracle))
        return values

    # The per-step rows skip the generic encoders: each cell is written as
    # the bytes csv.writer or json.dumps(indent=2) would give, which for
    # ints and finite floats are their str and repr.
    if fmt == "json":
        head = json.dumps(
            {
                "config": {"omega": config.omega, "T": config.T, "n": config.n},
                "schedule": schedule_to_dict(schedule),
                "series": None,
            },
            indent=2,
        ).split('"series": null', 1)[0]
        # The summary follows the series at the same depth as in one
        # json.dumps(indent=2) of the whole document.
        return _stream(head + '"series": [\n', chunks, _JSON_SERIES_ROW, ",\n",
                       lambda *last: "\n  ]," + _json({"summary": summary(*last)})[1:])

    csv_foot = "summary,%(p_exact)r,%(p_second_order)r,,%(criterion)r\r\n"
    if oracle:
        csv_foot += "oracle,%(p_oracle)r,,%(oracle_abs_gap)r,\r\n"
    return _stream("step,p_exact,p_second_order,abs_gap,criterion\r\n", chunks,
                   _CSV_ROW, "", lambda *last: csv_foot % summary(*last))


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


def _stream(head, chunks, row, joiner, foot):
    """head, then every chunk's rows, with joiner between each two rows,
    then foot(p_exact, p_second_order) of the last row.

    row is the five pieces of text before, between and after a row's four
    cells. Each column is formatted by one map, str for the steps and repr
    for the floats, and its strings are laid between the pieces by slice
    assignment into one list per chunk.
    """
    lead, after_step, after_exact, after_second, end = row
    # one row's slots, opened by the text between it and the row before it
    slots = [end + joiner + lead, None, after_step, None, after_exact, None, after_second, None]
    for steps, exact, second, gaps in chunks:
        cells = slots * len(steps) + [end]
        cells[0] = head + lead
        cells[1::8] = map(str, steps)
        cells[3::8] = map(repr, exact)
        cells[5::8] = map(repr, second)
        cells[7::8] = map(repr, gaps)
        yield "".join(cells)
        head = joiner
    yield foot(exact[-1], second[-1])


@main.command()
@_takes("V", "omega", "T", "n_max", *SCHEDULE_OPTIONS, "format", "output", "config")
def classify(opts):
    """Analytic regime of a schedule family, with a numeric cross-check."""
    schedule = schedule_from_dict(opts.schedule())
    variance, t_total = opts["V"], opts["T"]
    if variance is not None and opts.given("omega"):
        raise ValidationError("give V or omega, not both")
    if variance is not None and not (math.isfinite(variance) and variance >= 0):
        raise ValidationError(f"V must be finite and >= 0, got {variance}")
    omega = opts["omega"] if variance is None else math.sqrt(variance)
    config = EvolutionConfig(omega=omega, T=t_total, n=64)
    variance = config.V if variance is None else variance

    analytic = analysis.classify_schedule(schedule)
    numeric = analysis.numeric_limit_probe(schedule, config, opts["n_max"])
    limit_p = analytic.limit_p(variance, t_total)
    _require_finite([limit_p, numeric.extrapolated_limit],
                    lambda _: f"for V = {variance!r}, T = {t_total!r}")
    record = {
        "schedule": schedule_to_dict(schedule),
        "V": variance,
        "T": t_total,
        "analytic": {
            "label": analytic.label.value,
            "limit_coefficient": analytic.limit_coefficient,
            "limit_p": limit_p,
        },
        "numeric": {
            "label": numeric.label.value,
            "extrapolated_limit": numeric.extrapolated_limit,
            "converged": numeric.converged,
            "diagnostics": numeric.diagnostics,
        },
        # Labels near a boundary may differ while the limits agree within
        # the probe's own tolerance.
        "agreement": (analytic.label == numeric.label
                      or abs(limit_p - numeric.extrapolated_limit)
                      <= analysis.PROBE_TOLERANCE * variance * t_total**2),
    }
    if opts["format"] == "json":
        return _json(record)
    return _csv(
        ("label", "limit_p", "numeric_label", "numeric_limit", "converged", "agreement"),
        [(analytic.label.value, limit_p, numeric.label.value,
          numeric.extrapolated_limit, numeric.converged, record["agreement"])],
    )


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
    if not values:
        raise ValidationError(f"grid for {name} is empty")
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"grid for {name} leaves the float range: {body!r}")
    if name == "n":
        values = [int(round(v)) for v in values]
    return name, sorted(set(values))


@main.command()
@_takes("grid", "omega", "T", "n", *SCHEDULE_OPTIONS, "format", "output", "config",
        format="csv")
def sweep(opts):
    """Evaluate a 1- or 2-parameter grid of runs.

    Rows are ordered lexicographically by grid point.
    """
    grids = opts["grid"]
    if not grids:
        raise ValidationError("no grid given; pass --grid at least once")
    if len(grids) > 2:
        raise ValidationError("at most two grid parameters are supported")
    grid = dict(map(_parse_grid, grids))  # name -> its sorted values
    if len(grid) != len(grids):
        raise ValidationError(f"duplicate grid parameter {next(iter(grid))!r}")
    total = math.prod(map(len, grid.values()))
    if total > SWEEP_POINT_CAP:
        raise CapacityError(f"grid has {total} points, above the cap of {SWEEP_POINT_CAP}")

    fields = opts.schedule()
    for name in grid:
        if opts.given(name) or name in fields:
            raise ValidationError(f"{name} is swept by --grid and also given; give it once")
    if fields.get("type") == "constant":
        fields.setdefault("eta", 1.0)

    # A schedule depends only on the point's schedule values, so it is
    # built once per distinct set of them: once in all when none is swept.
    @functools.cache
    def schedule_for(swept):
        schedule = schedule_from_dict({**fields, **dict(swept)})
        try:
            regime = analysis.classify_schedule(schedule).label.value
        except UnclassifiableScheduleError:
            regime = "numeric-only"
        return schedule, regime

    # The grid's own values replace these in each point's config.
    base = {k: opts[k] for k in CONFIG_FIELDS if k not in grid}
    rows = []
    for combo in itertools.product(*grid.values()):
        point = tuple(zip(grid, combo))
        config = EvolutionConfig(**base, **{k: v for k, v in point if k in CONFIG_FIELDS})
        swept = tuple((k, v) for k, v in point if k not in CONFIG_FIELDS)
        schedule, regime = schedule_for(swept)
        # Only the last survival value is kept: the deque drops the others.
        p_exact = collections.deque(evolution.propagate_projected(
            config.step_unitary(), schedule, config.n), maxlen=1).pop()
        eta = family_eta(schedule, config.n)
        p_so, criterion = analysis.second_order_with_criterion(eta, config)
        _require_finite(
            (eta, p_exact, p_so, criterion),
            lambda _: "at grid point " + ", ".join(f"{k} = {v!r}" for k, v in point),
        )
        rows.append((config.n, eta, p_exact, p_so, criterion, regime))

    header = ("n", "eta_n", "p_exact", "p_second_order", "criterion", "regime")
    if opts["format"] == "json":
        return _json([dict(zip(header, r)) for r in rows])
    return _csv(header, rows)


PHYSICAL_MODELS = {
    "free-particle": (physical.FreeParticleParams, None),
    "gaussian-pointer": (physical.PointerModelParams, physical.gaussian_model_schedule),
    "brownian": (physical.BrownianModelParams, physical.brownian_schedule),
}
PHYSICAL_PARAMS = tuple(dict.fromkeys(  # each model's parameters, each once
    field.name for cls, _ in PHYSICAL_MODELS.values() for field in dataclasses.fields(cls)))


@main.command("physical")
@click.argument("model", type=click.Choice(list(PHYSICAL_MODELS)))
@_takes(*PHYSICAL_PARAMS, "format", "output", "config", T=REQUIRED)
def physical_cmd(opts):
    """Derived quantities and schedule for one of the physical scenarios."""
    model = opts["model"]
    cls, to_schedule = PHYSICAL_MODELS[model]
    read = [field.name for field in dataclasses.fields(cls)]
    require_read(f"{model} model", read, [k for k in PHYSICAL_PARAMS if opts.given(k)])
    params = cls(**{name: opts[name] for name in read})
    record = {"model": model, **dataclasses.asdict(params)}
    if to_schedule is None:
        record.update(
            energy_variance=physical.free_particle_variance(params),
            quadratic_validity_time=physical.quadratic_validity_time(params),
            note=physical.VALIDITY_TIME_DISCREPANCY_NOTE,
        )
    else:
        schedule = to_schedule(params)
        regime = analysis.classify_schedule(schedule)
        record.update(
            schedule=schedule_to_dict(schedule),
            regime=regime.label.value,
            limit_coefficient=regime.limit_coefficient,
        )
    if opts["format"] == "json":
        return _json(record)
    flat = [(k, v) for k, v in record.items() if not isinstance(v, dict)]
    flat += [(f"schedule_{k}", v) for k, v in record.get("schedule", {}).items()]
    return _csv(("key", "value"), flat)


@main.command()
@_takes("format", "output")
def recohere(opts):
    """Decoherence/revival stages with a pre-entangled environment pair."""
    stages = [
        {"stage": label,
         "rho": [[[z.real, z.imag] for z in row] for row in rho.matrix],
         "coherence": coherence}
        for label, rho, coherence in register.recoherence_demo()
    ]
    if opts["format"] == "json":
        return _json({"stages": stages})
    rows = [
        (s["stage"], *(x for row in s["rho"] for pair in row for x in pair), s["coherence"])
        for s in stages
    ]
    rho_columns = [f"rho_{i}{j}_{part}" for i in "01" for j in "01" for part in ("re", "im")]
    return _csv(("stage", *rho_columns, "coherence"), rows)


if __name__ == "__main__":
    main()
