"""Command-line surface: simulate, classify, sweep, physical, recohere.

Exit codes: 0 success, 2 invalid parameters, 3 capacity exceeded.
Parameters come from flags, then a JSON config file (--config), then the
command's defaults; a config key that the command does not take exits 2.
Every option is declared once, in PARAMS, and a command lists the ones it takes.
Output is CSV or JSON, to stdout or a file, and is deterministic:
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import collections
import csv
import functools
import io
import itertools
import json
import math
import operator
import os
import sys
import warnings

from . import analysis, evolution, physical, register
from ._frozen import Frozen
from .errors import CapacityError, ValidationError, require_read
from .schedules import SCHEDULE_TYPES, family_eta, schedule_from_dict, schedule_to_dict
from .sweep import CONFIG_FIELDS, SweepRow, parse_grid, sweep_rows
from .unitary import EvolutionConfig

# simulate formats, checks and writes its rows this many at a time, so its
# memory does not grow with n.
ROW_CHUNK = 4096
REQUIRED = object()


class Param(Frozen):
    """One option: its type (a tuple for a choice), its default (REQUIRED for none) and its help.

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
    "n_max": Param(int, analysis.regime_report.__defaults__[-1],  # the library's default
                   "Largest n probed numerically (default 2^20)."),
    "oracle": Param(bool, False, "Cross-check against the branch-word oracle "
                                 f"(n <= {evolution.ORACLE_MAX_STEPS})."),
    "schedule": Param(tuple(SCHEDULE_TYPES), "constant", "Overlap schedule family."),
    # text: schedule_from_dict reads a schedule flag's word as it reads a config value
    "eta": Param(str, None, "Constant overlap in [0, 1]."),
    "alpha": Param(str, None, "Family coefficient (power-law, exponential)."),
    "beta": Param(str, None, "Family exponent or rate (power-law, exponential)."),
    "overlaps": Param(str, None, "Comma-separated per-step overlaps (explicit schedule)."),
    "m": Param(float, REQUIRED, "Mass in kg."),
    "sigma": Param(float, REQUIRED, "Packet width in m."),
    "hbar": Param(float, physical.HBAR, "Reduced Planck constant in J*s."),
    "v": Param(float, REQUIRED, "Coupling velocity in m/s."),
    "c_ratio": Param(float, 1.0, "Interaction-time ratio of the pointer model."),
    "D": Param(float, REQUIRED, "Diffusion constant."),
    "format": Param(("csv", "json"), "json", "Output format."),
    # Flag only: never read from the config file.
    "output": Param(str, None, "Write to this path instead of stdout."),
    "config": Param(str, None, "JSON file with default parameter values."),
}
# A word after one of these flags is its value, even one that starts with "-".
VALUE_FLAGS = {"--" + name.replace("_", "-") for name, param in PARAMS.items()
               if param.type is not bool}
# The types' names in messages, and the words a bool may be, in any case.
TYPE_NAMES = {float: "float", int: "integer", bool: "boolean", str: "text"}
BOOLEAN_WORDS = {**dict.fromkeys(("1", "true", "t", "yes", "y", "on"), True),
                 **dict.fromkeys(("0", "false", "f", "no", "n", "off", ""), False)}
SCHEDULE_FIELDS = tuple(dict.fromkeys(  # each schedule type's fields, each once
    name for cls in SCHEDULE_TYPES.values() for name in cls._fields))
SCHEDULE_OPTIONS = ("schedule", *SCHEDULE_FIELDS)


def _read_config(path, command, names):
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
    require_read(f"config file of {command}",
                 [k for k in names if k not in ("output", "config")], data)
    return {k: v if k in SCHEDULE_OPTIONS else _config_value(k, v)
            for k, v in data.items() if v is not None}


def _config_value(name, value):
    """A config value read as its flag's word is; a multiple option's is a list of them."""
    param = PARAMS[name]
    try:
        if not param.multiple:
            return _convert(name, value)
        if isinstance(value, list):
            return tuple(_convert(name, v) for v in value)
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a valid list of {TYPE_NAMES[param.type]}")
    except argparse.ArgumentTypeError as exc:
        raise ValidationError(f"config {name}: {exc}") from None


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
    """The value of the option name from a flag's word (argparse's type=) or
    a config file's JSON value, which are read alike: a choice, a bool as a
    word of BOOLEAN_WORDS, a number but not a bool, and an int not a fraction.
    """
    ptype = PARAMS[name].type
    try:
        if isinstance(ptype, tuple):
            return ptype[ptype.index(value)]
        if ptype is bool:
            return value if isinstance(value, bool) else BOOLEAN_WORDS[value.strip().lower()]
        if isinstance(value, bool) or (ptype is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise TypeError
        return ptype(value)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
        kind = "choice" if isinstance(ptype, tuple) else TYPE_NAMES[ptype]
        raise argparse.ArgumentTypeError(f"{value!r} is not a valid {kind}") from None


COMMANDS = {}
PARSER = argparse.ArgumentParser(prog="zenokit", allow_abbrev=False,
                                 description="Free evolution vs. decoherence of a qubit.")
_SUBPARSERS = PARSER.add_subparsers(dest="command", required=True, metavar="COMMAND")


def _command(name, *names, argument=None, **defaults):
    """Make a function the command name in COMMANDS and PARSER, which takes the
    options `names` from PARAMS, in that order, and the positional argument =
    (name, choices) if given. main calls it with the Options of one invocation,
    whose defaults are PARAMS' with `defaults` laid over them; it returns the text
    to print (or write to --output), as one string or an iterable of strings."""
    def decorate(fn):
        COMMANDS[name] = fn, names, {
            option: value for option in names
            if (value := defaults.get(option, PARAMS[option].default)) is not REQUIRED}
        command = _SUBPARSERS.add_parser(name, help=fn.__doc__.splitlines()[0],
                                         description=fn.__doc__, allow_abbrev=False)
        if argument:
            command.add_argument(argument[0], choices=argument[1])
        for option in names:
            param = PARAMS[option]
            if param.type is bool:
                reader = dict(action="store_true", default=None)
            else:
                reader = dict(type=functools.partial(_convert, option),
                              action="append" if param.multiple else "store",
                              choices=param.type if isinstance(param.type, tuple) else None)
            command.add_argument("--" + option.replace("_", "-"), dest=option,
                                 help=param.help, **reader)
        return fn

    return decorate


def _emit(text, output):
    chunks = [text] if isinstance(text, str) else text
    if output is None:
        # Each chunk is flushed, so rows already written precede a later error.
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


@_command("simulate", "omega", "T", "n", "oracle", *SCHEDULE_OPTIONS, "format", "output", "config",
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

    # The exact column is finite and in [0, 1]: propagate_projected yields a
    # value that the overlaps' slack or rounding lifts past 1 as 1.0. The
    # second-order column never increases in the step, so it is finite if its
    # last row is; the rows are scanned only when that row is not.
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


@_command("classify", "V", "omega", "T", "n_max", *SCHEDULE_OPTIONS, "format", "output", "config")
def classify(opts):
    """Analytic regime of a schedule family, with a numeric cross-check."""
    schedule = schedule_from_dict(opts.schedule())
    variance, t_total = opts["V"], opts["T"]
    if variance is None:  # EvolutionConfig is the one check of omega
        variance = EvolutionConfig(omega=opts["omega"], T=t_total, n=64).V
    elif opts.given("omega"):
        raise ValidationError("give V or omega, not both")
    report = analysis.regime_report(schedule, variance, t_total, opts["n_max"])
    _require_finite([report.limit_p, report.numeric_limit],
                    lambda _: f"for V = {variance!r}, T = {t_total!r}")
    record = {
        "schedule": schedule_to_dict(schedule),
        "V": variance,
        "T": t_total,
        "analytic": {
            "label": report.analytic.label.value,
            "limit_coefficient": report.analytic.limit_coefficient,
            "limit_p": report.limit_p,
        },
        "numeric": {
            "label": report.numeric.label.value,
            "extrapolated_limit": report.numeric_limit,
            "converged": report.numeric.converged,
            "diagnostics": report.numeric.diagnostics,
        },
        "agreement": report.agreement,
    }
    if opts["format"] == "json":
        return _json(record)
    return _csv(
        ("label", "limit_p", "numeric_label", "numeric_limit", "converged", "agreement"),
        [(report.analytic.label.value, report.limit_p, report.numeric.label.value,
          report.numeric_limit, report.numeric.converged, report.agreement)],
    )


@_command("sweep", "grid", "omega", "T", "n", *SCHEDULE_OPTIONS, "format", "output", "config",
          format="csv")
def sweep(opts):
    """Evaluate a 1- or 2-parameter grid of runs.

    Rows are ordered lexicographically by grid point.
    """
    if not opts["grid"]:
        raise ValidationError("no grid given; pass --grid at least once")
    grid = parse_grid(opts["grid"])  # name -> its sorted values
    fields = opts.schedule()
    for name in grid:
        if opts.given(name) or name in fields:
            raise ValidationError(f"{name} is swept by --grid and also given; give it once")
    if fields.get("type") == "constant" and "eta" not in grid:
        fields.setdefault("eta", 1.0)

    # The grid's own values replace the others in each point's run.
    rows = sweep_rows(grid, {k: opts[k] for k in CONFIG_FIELDS if k not in grid}, fields)
    table = []
    for point, row in zip(itertools.product(*grid.values()), rows):
        values = row._values()
        _require_finite(values[1:5], lambda _: "at grid point " + ", ".join(
            f"{k} = {v!r}" for k, v in zip(grid, point)))
        table.append(values)
    if opts["format"] == "json":
        return _json([dict(zip(SweepRow._fields, values)) for values in table])
    return _csv(SweepRow._fields, table)


PHYSICAL_MODELS = {
    "free-particle": (physical.FreeParticleParams, None),
    "gaussian-pointer": (physical.PointerModelParams, physical.gaussian_model_schedule),
    "brownian": (physical.BrownianModelParams, physical.brownian_schedule),
}
PHYSICAL_PARAMS = tuple(dict.fromkeys(  # each model's parameters, each once
    name for cls, _ in PHYSICAL_MODELS.values() for name in cls._fields))


@_command("physical", *PHYSICAL_PARAMS, "format", "output", "config",
          argument=("model", tuple(PHYSICAL_MODELS)), T=REQUIRED)
def physical_cmd(opts):
    """Derived quantities and schedule for one of the physical scenarios."""
    model = opts["model"]
    cls, to_schedule = PHYSICAL_MODELS[model]
    require_read(f"{model} model", cls._fields, [k for k in PHYSICAL_PARAMS if opts.given(k)])
    params = cls(**{name: opts[name] for name in cls._fields})
    record = {"model": model, **{name: getattr(params, name) for name in cls._fields}}
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


@_command("recohere", "format", "output")
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


def main(args=None, prog_name=None):
    """Run the command that args (by default sys.argv[1:]) names, and exit. A
    warning is one line on stderr, "warning: <message>", unless the warning
    filters (-W, PYTHONWARNINGS) hide it or turn it into an error, which exits 2."""
    words = []
    for word in sys.argv[1:] if args is None else args:
        if words and words[-1] in VALUE_FLAGS and word.startswith("-"):
            words[-1] += "=" + word  # "--omega -1" as "--omega=-1", which argparse reads
        else:
            words.append(word)
    try:
        flags = vars(PARSER.parse_args(words))
        command = flags.pop("command")
        fn, names, defaults = COMMANDS[command]
        # entering also clears the record of warnings already shown, so each
        # invocation shows its own
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                             file=sys.stderr)
            config = _read_config(flags.pop("config", None), command, names)
            output = flags.pop("output")
            flags = {k: v for k, v in flags.items() if v is not None}
            _emit(fn(Options(flags, config, defaults)), output)
    except (CapacityError, ValidationError, Warning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3 if isinstance(exc, CapacityError) else 2)
    except BrokenPipeError:
        # The reader closed stdout: exit 1 quietly; devnull takes the flush at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        sys.exit("Aborted!")
    sys.exit(0)


# click.testing.CliRunner, which the tests and zenobench's in-process runner
# drive main with, calls main.main(args=..., prog_name=main.name); prog_name is unused.
main.main, main.name = main, "zenokit"

if __name__ == "__main__":
    main()
