"""Command-line surface: simulate, classify, sweep, physical, recohere.

Exit codes: 0 success, 2 invalid parameters, 3 capacity exceeded.
Parameters come from flags or a JSON config file (--config); flags win.
Output is CSV or JSON, to stdout or a file, and is deterministic:
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import operator
import sys

import click
import numpy as np

from . import analysis, evolution, physical, register
from .errors import CapacityError, UnclassifiableScheduleError, ValidationError
from .schedules import (
    ConstantOverlap,
    ExplicitOverlaps,
    ExponentialOverlap,
    PowerLawOverlap,
    family_eta,
)
from .unitary import EvolutionConfig

SWEEP_POINT_CAP = 10**6
SWEEP_PARAMS = ("n", "eta", "alpha", "beta", "omega", "T")
SCHEDULE_PARAMS = ("eta", "alpha", "beta")


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CapacityError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (ValidationError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _load_config(path):
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValidationError("config file must hold a JSON object")
    return data


def _resolve(cfg, name, flag_value, default=None, required=False):
    if flag_value is not None:
        return flag_value
    if name in cfg:
        return cfg[name]
    if required and default is None:
        raise ValidationError(f"missing required parameter: {name}")
    return default


def _parse_overlaps(text):
    try:
        return tuple(complex(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse overlap list {text!r}: {exc}")


def _build_schedule(cfg, kind, eta, alpha, beta, overlaps):
    kind = _resolve(cfg, "schedule", kind, default="constant")
    eta = _resolve(cfg, "eta", eta)
    alpha = _resolve(cfg, "alpha", alpha)
    beta = _resolve(cfg, "beta", beta)
    overlaps = _resolve(cfg, "overlaps", overlaps)
    if kind == "constant":
        if eta is None:
            raise ValidationError("constant schedule needs --eta")
        return ConstantOverlap(eta=float(eta))
    if kind in ("power-law", "exponential"):
        if alpha is None or beta is None:
            raise ValidationError(f"{kind} schedule needs --alpha and --beta")
        cls = PowerLawOverlap if kind == "power-law" else ExponentialOverlap
        return cls(alpha=float(alpha), beta=float(beta))
    if kind == "explicit":
        if overlaps is None:
            raise ValidationError("explicit schedule needs --overlaps")
        if isinstance(overlaps, str):
            overlaps = _parse_overlaps(overlaps)
        return ExplicitOverlaps(overlaps=tuple(complex(o) for o in overlaps))
    raise ValidationError(f"unknown schedule type {kind!r}")


def _schedule_fields(schedule):
    if isinstance(schedule, ConstantOverlap):
        return {"type": "constant", "eta": _jsonable(schedule.eta)}
    if isinstance(schedule, PowerLawOverlap):
        return {"type": "power-law", "alpha": schedule.alpha, "beta": schedule.beta}
    if isinstance(schedule, ExponentialOverlap):
        return {"type": "exponential", "alpha": schedule.alpha, "beta": schedule.beta}
    return {"type": "explicit", "overlaps": [_jsonable(o) for o in schedule.overlaps]}


def _jsonable(value):
    if isinstance(value, complex):
        if value.imag == 0:
            return value.real
        return [value.real, value.imag]
    return value


def _emit(text, output):
    if output is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(
                f"cannot write {output}: {exc.strerror or exc}"
            ) from exc


def _emit_json(obj, output):
    _emit(json.dumps(obj, indent=2) + "\n", output)


def _emit_csv(header, rows, output):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), output)


# One element of simulate's "series" list as json.dumps(indent=2) nests it.
_JSON_SERIES_ITEM = """\
    {
      "step": %d,
      "p_exact": %r,
      "p_second_order": %r,
      "abs_gap": %r
    }"""


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default=None,
    help="Output format."
)
_output_option = click.option(
    "--output", type=click.Path(dir_okay=False), default=None,
    help="Write to this path instead of stdout."
)
_config_option = click.option(
    "--config", "config_path", type=click.Path(exists=True, dir_okay=False),
    default=None, help="JSON file with default parameter values."
)


def _schedule_options(fn):
    for opt in reversed([
        click.option("--schedule", "kind",
                     type=click.Choice(["constant", "power-law", "exponential", "explicit"]),
                     default=None, help="Overlap schedule family."),
        click.option("--eta", type=float, default=None,
                     help="Constant overlap in [0, 1]."),
        click.option("--alpha", type=float, default=None),
        click.option("--beta", type=float, default=None),
        click.option("--overlaps", type=str, default=None,
                     help="Comma-separated per-step overlaps (explicit schedule)."),
    ]):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Discrete free-evolution vs. decoherence toolkit for a qubit."""


@main.command()
@click.option("--omega", type=float, default=None, help="Rabi angular frequency.")
@click.option("--T", "t_total", type=float, default=None, help="Total duration.")
@click.option("--n", type=int, default=None, help="Number of steps.")
@click.option("--c-ratio", type=float, default=None)
@click.option("--oracle", is_flag=True, default=False,
              help="Cross-check against the 2^n branch oracle (n <= 20).")
@_schedule_options
@_format_option
@_output_option
@_config_option
@_handle_errors
def simulate(omega, t_total, n, c_ratio, oracle, kind, eta, alpha, beta,
             overlaps, fmt, output, config_path):
    """Exact and second-order survival probability of one run."""
    cfg = _load_config(config_path)
    config = EvolutionConfig(
        omega=float(_resolve(cfg, "omega", omega, required=True)),
        T=float(_resolve(cfg, "T", t_total, required=True)),
        n=int(_resolve(cfg, "n", n, required=True)),
        c_ratio=float(_resolve(cfg, "c_ratio", c_ratio, default=1.0)),
    )
    schedule = _build_schedule(cfg, kind, eta, alpha, beta, overlaps)
    oracle = oracle or bool(cfg.get("oracle", False))

    result = evolution.survival_series(config, schedule)
    p_exact = result.series
    p_second = analysis.second_order_series(family_eta(schedule, config.n), config)
    gaps = list(map(abs, map(operator.sub, p_exact, p_second)))
    summary = {
        "p_exact": result.p_exact,
        "p_second_order": result.p_second_order,
        "criterion": result.criterion_value,
    }
    if oracle:
        p_oracle = evolution.enumerate_branches(
            config.step_unitary(), schedule, config.n
        )
        summary["p_oracle"] = p_oracle
        summary["oracle_abs_gap"] = abs(result.p_exact - p_oracle)
    # A gap is finite only if both of its row's probabilities are.
    if not all(map(math.isfinite, itertools.chain(gaps, summary.values()))):
        step = next((i for i, g in enumerate(gaps, 1) if not math.isfinite(g)), None)
        raise ValidationError(
            f"survival is not finite {f'at step {step}' if step else 'in the summary'}"
            f" for omega = {config.omega!r}, T = {config.T!r}, n = {config.n}; "
            "no rows printed"
        )

    # The per-step rows skip the generic encoders: each is formatted once
    # into the bytes csv.writer or json.dumps(indent=2) would give, which
    # for finite floats and ints are their repr.
    rows = zip(itertools.count(1), p_exact, p_second, gaps)
    fmt = _resolve(cfg, "format", fmt, default="csv")
    if fmt == "json":
        head, tail = json.dumps(
            {
                "config": {"omega": config.omega, "T": config.T, "n": config.n,
                           "c_ratio": config.c_ratio},
                "schedule": _schedule_fields(schedule),
                "series": None,
                "summary": summary,
            },
            indent=2,
        ).split('"series": null', 1)
        series = ",\n".join(map(_JSON_SERIES_ITEM.__mod__, rows))
        _emit(f'{head}"series": [\n{series}\n  ]{tail}\n', output)
    else:
        lines = ["step,p_exact,p_second_order,abs_gap,criterion\r\n"]
        lines += map("%d,%r,%r,%r,\r\n".__mod__, rows)
        lines.append("summary,%r,%r,,%r\r\n" % (
            result.p_exact, result.p_second_order, result.criterion_value))
        if oracle:
            lines.append("oracle,%r,,%r,\r\n" % (
                summary["p_oracle"], summary["oracle_abs_gap"]))
        _emit("".join(lines), output)


@main.command()
@click.option("--V", "variance", type=float, default=None,
              help="Hamiltonian variance; omega^2 if --omega is given instead.")
@click.option("--omega", type=float, default=None)
@click.option("--T", "t_total", type=float, default=None)
@click.option("--n-max", type=int, default=None,
              help="Largest n probed numerically (default 2^20).")
@_schedule_options
@_format_option
@_output_option
@_config_option
@_handle_errors
def classify(variance, omega, t_total, n_max, kind, eta, alpha, beta,
             overlaps, fmt, output, config_path):
    """Analytic regime of a schedule family, with a numeric cross-check."""
    cfg = _load_config(config_path)
    schedule = _build_schedule(cfg, kind, eta, alpha, beta, overlaps)
    variance = _resolve(cfg, "V", variance)
    omega = _resolve(cfg, "omega", omega)
    if variance is None:
        try:
            variance = float(omega) ** 2 if omega is not None else 1.0
        except OverflowError:
            raise ValidationError(
                f"omega = {omega} puts V = omega^2 beyond the float range"
            ) from None
    elif not (math.isfinite(variance) and variance >= 0):
        raise ValidationError(f"V must be finite and >= 0, got {variance}")
    t_total = float(_resolve(cfg, "T", t_total, default=1.0))
    n_max = int(_resolve(cfg, "n_max", n_max, default=2**20))

    analytic = analysis.classify_schedule(schedule)
    config = EvolutionConfig(omega=math.sqrt(variance), T=t_total, n=64)
    numeric = analysis.numeric_limit_probe(schedule, config, n_max)
    record = {
        "schedule": _schedule_fields(schedule),
        "V": variance,
        "T": t_total,
        "analytic": {
            "label": analytic.label.value,
            "limit_coefficient": analytic.limit_coefficient,
            "limit_p": analytic.limit_p(variance, t_total),
        },
        "numeric": {
            "label": numeric.label.value,
            "extrapolated_limit": numeric.extrapolated_limit,
            "converged": numeric.converged,
            "diagnostics": [[n, c] for n, c in numeric.diagnostics],
        },
        "agreement": analytic.label == numeric.label,
    }
    fmt = _resolve(cfg, "format", fmt, default="json")
    if fmt == "json":
        _emit_json(record, output)
    else:
        _emit_csv(
            ("label", "limit_p", "numeric_label", "numeric_limit",
             "converged", "agreement"),
            [(
                record["analytic"]["label"],
                repr(record["analytic"]["limit_p"]),
                record["numeric"]["label"],
                repr(record["numeric"]["extrapolated_limit"]),
                record["numeric"]["converged"],
                record["agreement"],
            )],
            output,
        )


def _parse_grid(spec):
    if "=" not in spec:
        raise ValidationError(f"grid must look like param=values, got {spec!r}")
    name, _, body = spec.partition("=")
    name = name.strip()
    if name not in SWEEP_PARAMS:
        raise ValidationError(
            f"cannot sweep {name!r}; choose from {', '.join(SWEEP_PARAMS)}"
        )
    body = body.strip()
    if body.startswith("lin:") or body.startswith("geom:"):
        scheme, *parts = body.split(":")
        if len(parts) != 3:
            raise ValidationError(f"{scheme} grid needs start:stop:count, got {body!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValidationError(f"grid count must be >= 1, got {count}")
        if scheme == "lin":
            values = np.linspace(start, stop, count)
        else:
            if start <= 0 or stop <= 0:
                raise ValidationError("geom grid endpoints must be positive")
            values = np.geomspace(start, stop, count)
        values = values.tolist()
    else:
        values = [float(v) for v in body.split(",") if v.strip()]
    if not values:
        raise ValidationError(f"grid for {name} is empty")
    if name == "n":
        values = [int(round(v)) for v in values]
    return name, sorted(set(values))


def _schedule_and_regime(sched):
    schedule = _build_schedule(
        {}, sched["kind"], sched["eta"], sched["alpha"], sched["beta"],
        sched["overlaps"],
    )
    try:
        regime = analysis.classify_schedule(schedule).label.value
    except UnclassifiableScheduleError:
        regime = "numeric-only"
    return schedule, regime


def _sweep_point(base, point, schedule_for):
    params = dict(base)
    params.update((name, v) for name, v in point if name not in SCHEDULE_PARAMS)
    config = EvolutionConfig(
        omega=params["omega"], T=params["T"], n=int(params["n"]),
        c_ratio=params.get("c_ratio", 1.0),
    )
    schedule, regime = schedule_for(
        tuple(p for p in point if p[0] in SCHEDULE_PARAMS)
    )
    result = evolution.survival_series(config, schedule)
    return (
        config.n,
        family_eta(schedule, config.n),
        result.p_exact,
        result.p_second_order,
        result.criterion_value,
        regime,
    )


@main.command()
@click.option("--grid", "grids", type=str, multiple=True,
              help="param=v1,v2,... or param=lin:start:stop:count or "
                   "param=geom:start:stop:count; at most two.")
@click.option("--omega", type=float, default=None)
@click.option("--T", "t_total", type=float, default=None)
@click.option("--n", type=int, default=None)
@_schedule_options
@_format_option
@_output_option
@_config_option
@_handle_errors
def sweep(grids, omega, t_total, n, kind, eta, alpha, beta, overlaps, fmt,
          output, config_path):
    """Evaluate a 1- or 2-parameter grid of runs.

    Rows are ordered lexicographically by grid point.
    """
    cfg = _load_config(config_path)
    grids = list(grids) or list(cfg.get("grid", []))
    if not grids:
        raise ValidationError("no grid given; pass --grid at least once")
    if len(grids) > 2:
        raise ValidationError("at most two grid parameters are supported")
    parsed = [_parse_grid(g) for g in grids]
    names = [name for name, _ in parsed]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate grid parameter {names[0]!r}")
    total = 1
    for _, values in parsed:
        total *= len(values)
    if total > SWEEP_POINT_CAP:
        raise CapacityError(
            f"grid has {total} points, above the cap of {SWEEP_POINT_CAP}"
        )

    base = {
        "omega": float(_resolve(cfg, "omega", omega, default=1.0)),
        "T": float(_resolve(cfg, "T", t_total, default=1.0)),
        "n": int(_resolve(cfg, "n", n, default=1)),
    }
    sched_params = {
        "kind": _resolve(cfg, "schedule", kind, default="constant"),
        "eta": _resolve(cfg, "eta", eta),
        "alpha": _resolve(cfg, "alpha", alpha),
        "beta": _resolve(cfg, "beta", beta),
        "overlaps": _resolve(cfg, "overlaps", overlaps),
    }
    if sched_params["kind"] == "constant" and sched_params["eta"] is None:
        sched_params["eta"] = 1.0

    points = [
        tuple(zip(names, combo))
        for combo in itertools.product(*(values for _, values in parsed))
    ]
    # A schedule depends only on the point's schedule parameters, so it is
    # built once per distinct set of them: once in all when none is swept.
    @functools.cache
    def schedule_for(swept):
        return _schedule_and_regime({**sched_params, **dict(swept)})

    rows = [_sweep_point(base, p, schedule_for) for p in points]

    fmt = _resolve(cfg, "format", fmt, default="csv")
    header = ("n", "eta_n", "p_exact", "p_second_order", "criterion", "regime")
    if fmt == "json":
        _emit_json(
            [dict(zip(header, (r[0], *map(_jsonable, r[1:5]), r[5]))) for r in rows],
            output,
        )
    else:
        _emit_csv(
            header,
            [(r[0], repr(r[1]), repr(r[2]), repr(r[3]), repr(r[4]), r[5])
             for r in rows],
            output,
        )


@main.command()
@click.argument("model",
                type=click.Choice(["free-particle", "gaussian-pointer", "brownian"]))
@click.option("--m", "mass", type=float, default=None, help="Mass in kg.")
@click.option("--sigma", type=float, default=None, help="Packet width in m.")
@click.option("--hbar", type=float, default=None)
@click.option("--v", "velocity", type=float, default=None,
              help="Coupling velocity in m/s.")
@click.option("--c-ratio", type=float, default=None)
@click.option("--T", "t_total", type=float, default=None)
@click.option("--D", "diffusion", type=float, default=None,
              help="Diffusion constant.")
@_format_option
@_output_option
@_config_option
@_handle_errors
def physical_cmd(model, mass, sigma, hbar, velocity, c_ratio, t_total,
                 diffusion, fmt, output, config_path):
    """Derived quantities and schedule for one of the physical scenarios."""
    cfg = _load_config(config_path)
    if model == "free-particle":
        params = physical.FreeParticleParams(
            m=float(_resolve(cfg, "m", mass, required=True)),
            sigma=float(_resolve(cfg, "sigma", sigma, required=True)),
            hbar=float(_resolve(cfg, "hbar", hbar, default=physical.HBAR)),
        )
        record = {
            "model": model,
            "m": params.m,
            "sigma": params.sigma,
            "hbar": params.hbar,
            "energy_variance": physical.free_particle_variance(params),
            "quadratic_validity_time": physical.quadratic_validity_time(params),
            "note": physical.VALIDITY_TIME_DISCREPANCY_NOTE,
        }
    elif model == "gaussian-pointer":
        params = physical.PointerModelParams(
            v=float(_resolve(cfg, "v", velocity, required=True)),
            sigma=float(_resolve(cfg, "sigma", sigma, required=True)),
            c_ratio=float(_resolve(cfg, "c_ratio", c_ratio, default=1.0)),
            T=float(_resolve(cfg, "T", t_total, required=True)),
        )
        schedule = physical.gaussian_model_schedule(params)
        regime = analysis.classify_schedule(schedule)
        record = {
            "model": model,
            "v": params.v,
            "sigma": params.sigma,
            "c_ratio": params.c_ratio,
            "T": params.T,
            "schedule": _schedule_fields(schedule),
            "regime": regime.label.value,
            "limit_coefficient": regime.limit_coefficient,
        }
    else:
        params = physical.BrownianModelParams(
            D=float(_resolve(cfg, "D", diffusion, required=True)),
            T=float(_resolve(cfg, "T", t_total, required=True)),
        )
        schedule = physical.brownian_schedule(params)
        regime = analysis.classify_schedule(schedule)
        record = {
            "model": model,
            "D": params.D,
            "T": params.T,
            "schedule": _schedule_fields(schedule),
            "regime": regime.label.value,
            "limit_coefficient": regime.limit_coefficient,
        }
    fmt = _resolve(cfg, "format", fmt, default="json")
    if fmt == "json":
        _emit_json(record, output)
    else:
        flat = [(k, v) for k, v in record.items() if not isinstance(v, dict)]
        flat += [
            (f"schedule_{k}", v)
            for k, v in record.get("schedule", {}).items()
        ]
        _emit_csv(("key", "value"), flat, output)


main.add_command(physical_cmd, name="physical")


@main.command()
@_format_option
@_output_option
@_handle_errors
def recohere(fmt, output):
    """Decoherence/revival stages with a pre-entangled environment pair."""
    stages = []
    for label, rho, coherence in register.recoherence_demo():
        stages.append({
            "stage": label,
            "rho": [
                [[rho.matrix[i, j].real, rho.matrix[i, j].imag] for j in (0, 1)]
                for i in (0, 1)
            ],
            "coherence": coherence,
        })
    if fmt in (None, "json"):
        _emit_json({"stages": stages}, output)
    else:
        rows = []
        for s in stages:
            flat = [x for entry in s["rho"] for pair in entry for x in pair]
            rows.append((s["stage"], *[repr(v) for v in flat], repr(s["coherence"])))
        _emit_csv(
            ("stage",
             "rho_00_re", "rho_00_im", "rho_01_re", "rho_01_im",
             "rho_10_re", "rho_10_im", "rho_11_re", "rho_11_im",
             "coherence"),
            rows, output,
        )


if __name__ == "__main__":
    main()
