"""Checks of zenokit's outputs, computed apart from zenokit.

Nothing here imports zenokit. The references are built from the model's
definition: one step is M = diag(1, eta) @ U with U = exp(-i*theta*sigma_x)
and theta = omega*T/n, the exact survival after i steps is
|(M_i ... M_1)[0, 0]|^2, and the second-order survival after i of n steps
is 1 - 2*S(eta, i)*V*(T/n)^2 with S(eta, i) = i/2 + sum_{k<i} (i-k)*eta^k
and V = omega^2. The tolerances are listed in README.md.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath
import numpy as np

P_EXACT_TOL = 1e-9  # absolute, against an independent matrix product
P_SECOND_ORDER_TOL = 1e-9  # absolute, against float64 prefix sums
P_CLOSED_FORM_TOL = 1e-12  # absolute, against closed forms and mpmath sums
CRITERION_RTOL = 1e-9  # relative, against the 40-digit closed form
ORACLE_GAP_MAX = 1e-12
PROBE_TOL = 1e-3  # times V*T^2, the numeric probe's labelling tolerance
ETA_RTOL = 1e-12
MP_DIGITS = 40

SIMULATE_HEADER = ["step", "p_exact", "p_second_order", "abs_gap", "criterion"]
SWEEP_HEADER = ["n", "eta_n", "p_exact", "p_second_order", "criterion", "regime"]


class CheckError(Exception):
    """An output disagrees with its reference."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


def require_close(got, want, tol, what):
    err = float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))))
    require(err <= tol, f"{what}: error {err:.3e} above {tol:.0e}")


def require_rel(got, want, rtol, what):
    got, want = np.asarray(got, float), np.asarray(want, float)
    require(bool(np.all(np.abs(got - want) <= rtol * np.abs(want))),
            f"{what}: relative error above {rtol:.0e}")


def require_probabilities(values, what):
    a = np.asarray(values, float)
    require(bool(np.all(np.isfinite(a)) and np.all((a >= 0.0) & (a <= 1.0))),
            f"{what}: a probability is not finite or lies outside [0, 1]")


# ---- references -----------------------------------------------------------

def step_matrices(etas, thetas):
    """Stack of diag(1, eta) @ exp(-i*theta*sigma_x), broadcast over inputs."""
    etas, thetas = np.broadcast_arrays(np.asarray(etas, complex), np.asarray(thetas, float))
    c, s = np.cos(thetas), np.sin(thetas)
    m = np.empty(etas.shape + (2, 2), complex)
    m[..., 0, 0], m[..., 0, 1] = c, -1j * s
    m[..., 1, 0], m[..., 1, 1] = -1j * s * etas, c * etas
    return m


def survival_prefix(m, n):
    """|(m^i)[0, 0]|^2 for i = 1..n, by doubling the list of powers."""
    powers = m[None]
    while len(powers) < n:
        powers = np.concatenate([powers, powers @ powers[-1]])
    return np.abs(powers[:n, 0, 0]) ** 2


def tail_prefix(eta, n):
    """sum_{k=1}^{i-1} (i-k)*eta^k for i = 1..n, as float64 prefix sums."""
    partial = np.cumsum(eta ** np.arange(1.0, n))
    return np.concatenate([[0.0], np.cumsum(partial)])


def tail_closed_form(eta, n):
    """The same tail at step n, from its closed form at 40 digits."""
    with mpmath.workdps(MP_DIGITS):
        e = mpmath.mpf(eta)
        if e == 1:
            return mpmath.mpf(n) * (n - 1) / 2
        return (n * e * (1 - e) + e * (e**n - 1)) / (1 - e) ** 2


def zeno_sum_mp(eta, i):
    """S(eta, i) = i/2 + sum_{k=1}^{i-1} (i-k)*eta^k, summed term by term."""
    with mpmath.workdps(MP_DIGITS):
        e, power, terms = mpmath.mpf(eta), mpmath.mpf(1), []
        for k in range(1, i):
            power *= e
            terms.append((i - k) * power)
        return mpmath.mpf(i) / 2 + mpmath.fsum(terms)


def second_order(S, omega, T, n):
    return 1.0 - 2.0 * S * omega**2 * (T / n) ** 2


def intermediate_k(alpha):
    """k(alpha) = 2*(1/alpha + (e^-alpha - 1)/alpha^2) for the beta = 1 family."""
    with mpmath.workdps(MP_DIGITS):
        a = mpmath.mpf(alpha)
        return float(2 * (1 / a + (mpmath.exp(-a) - 1) / a**2))


def regime(kind, params):
    """The paper's rule: the label and k in lim p_n = 1 - k*V*T^2."""
    if kind == "constant":
        return ("FreeEvolution", 1.0) if abs(params["eta"]) == 1.0 else ("Zeno", 0.0)
    if kind == "power-law":
        if params["beta"] < 1.0:
            return "Zeno", 0.0
        if params["beta"] > 1.0:
            return "FreeEvolution", 1.0
        return "Intermediate", intermediate_k(params["alpha"])
    if kind == "exponential":
        return "FreeEvolution", 1.0
    raise ValueError(kind)


def family_eta(kind, params, n):
    """eta_n of a family schedule, by the schedule's definition."""
    if kind == "constant":
        return abs(params["eta"])
    if kind == "power-law":
        return 1.0 - params["alpha"] / n ** params["beta"]
    return 1.0 - params["alpha"] * math.exp(-params["beta"] * n)


def lin_grid(start, stop, count):
    return sorted(set(np.linspace(start, stop, count).tolist()))


# ---- parsing --------------------------------------------------------------

def csv_rows(data):
    return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))


def simulate_csv(data, n):
    rows = csv_rows(data)
    require(rows[0] == SIMULATE_HEADER, f"simulate CSV header {rows[0]}")
    body, extra = rows[1:n + 1], rows[n + 1:]
    require(len(body) == n and extra and extra[0][0] == "summary",
            "simulate CSV does not hold n step rows and a summary row")
    table = {
        "step": [int(r[0]) for r in body],
        "p_exact": [float(r[1]) for r in body],
        "p_second_order": [float(r[2]) for r in body],
        "abs_gap": [float(r[3]) for r in body],
        "summary": {"p_exact": float(extra[0][1]),
                    "p_second_order": float(extra[0][2]),
                    "criterion": float(extra[0][4])},
    }
    if len(extra) > 1:
        require(extra[1][0] == "oracle" and len(extra) == 2, "simulate CSV trailer")
        table["summary"]["p_oracle"] = float(extra[1][1])
        table["summary"]["oracle_abs_gap"] = float(extra[1][3])
    return table


def simulate_json(data):
    record = json.loads(data)
    series = record["series"]
    return {
        "step": [r["step"] for r in series],
        "p_exact": [r["p_exact"] for r in series],
        "p_second_order": [r["p_second_order"] for r in series],
        "abs_gap": [r["abs_gap"] for r in series],
        "summary": record["summary"],
    }, record


# ---- checks per command ---------------------------------------------------

def _check_constant_run(table, omega, T, n, eta):
    """Every row of a constant-eta simulate against independent references."""
    pe, ps = np.array(table["p_exact"]), np.array(table["p_second_order"])
    require(table["step"] == list(range(1, n + 1)), "simulate steps are not 1..n")
    require_probabilities(pe, "p_exact")
    require_probabilities(ps, "p_second_order")
    m = step_matrices(eta, omega * T / n)
    require_close(pe, survival_prefix(m, n), P_EXACT_TOL, "p_exact vs matrix powers")
    S = np.arange(1, n + 1) / 2 + tail_prefix(eta, n)
    require_close(ps, second_order(S, omega, T, n), P_SECOND_ORDER_TOL,
                  "p_second_order vs prefix sums")
    require(np.array_equal(np.array(table["abs_gap"]), np.abs(pe - ps)),
            "abs_gap is not |p_exact - p_second_order|")
    summary = table["summary"]
    require(summary["p_exact"] == pe[-1], "summary p_exact is not the last step's")
    S_n = float(n / 2 + tail_closed_form(eta, n))
    require_close(summary["p_second_order"], second_order(S_n, omega, T, n),
                  P_CLOSED_FORM_TOL, "summary p_second_order")
    require_rel(summary["criterion"], float(tail_closed_form(eta, n)) / n**2,
                CRITERION_RTOL, "summary criterion")
    require_probabilities([summary["p_exact"], summary["p_second_order"]], "summary")


def check_simulate_csv_json(csv_data, json_data, omega, T, n, eta):
    table = simulate_csv(csv_data, n)
    _check_constant_run(table, omega, T, n, eta)
    jtable, record = simulate_json(json_data)
    require(record["config"]["n"] == n and record["schedule"] == {"type": "constant", "eta": eta},
            "simulate JSON config or schedule")
    for key in ("step", "p_exact", "p_second_order", "abs_gap"):
        require(jtable[key] == table[key], f"CSV and JSON differ in {key}")
    require(jtable["summary"] == table["summary"], "CSV and JSON differ in the summary")


def check_simulate_eta_one(data, omega, T, n):
    table = simulate_csv(data, n)
    _check_constant_run(table, omega, T, n, 1.0)
    x = np.arange(1, n + 1) * (omega * T / n)
    require_close(table["p_exact"], np.cos(x) ** 2, P_EXACT_TOL, "eta = 1 p_exact vs cos^2")
    require_close(table["p_second_order"], 1.0 - x**2, P_CLOSED_FORM_TOL,
                  "eta = 1 p_second_order vs 1 - (i*omega*T/n)^2")


def check_simulate_near_one(data, omega, T, n, eta, samples):
    table = simulate_csv(data, n)
    _check_constant_run(table, omega, T, n, eta)
    got = [table["p_second_order"][i - 1] for i in samples]
    want = [float(second_order(zeno_sum_mp(eta, i), omega, T, n)) for i in samples]
    require_close(got, want, P_CLOSED_FORM_TOL, "p_second_order vs mpmath zeno sum")


def check_simulate_oracle(data, omega, T, n, eta):
    table = simulate_csv(data, n)
    _check_constant_run(table, omega, T, n, eta)
    s = table["summary"]
    require("p_oracle" in s, "simulate --oracle printed no oracle row")
    require_probabilities([s["p_oracle"]], "p_oracle")
    require(s["oracle_abs_gap"] == abs(s["p_exact"] - s["p_oracle"]),
            "oracle_abs_gap is not |p_exact - p_oracle|")
    require(s["oracle_abs_gap"] <= ORACLE_GAP_MAX,
            f"oracle gap {s['oracle_abs_gap']:.3e} above {ORACLE_GAP_MAX:.0e}")


def _check_sweep_rows(rows, ns, etas, omegas, T, regimes, step_products):
    """Sweep rows against references; step_products[j] is row j's chain product."""
    require(len(rows) == len(ns), f"sweep has {len(rows)} rows, expected {len(ns)}")
    for row, n, eta, label in zip(rows, ns, etas, regimes):
        require(row["n"] == n, f"sweep row n = {row['n']}, expected {n}")
        require_rel(row["eta_n"], eta, ETA_RTOL, f"sweep eta_n at n = {n}")
        require(row["regime"] == label, f"sweep regime {row['regime']}, expected {label}")
    pe = np.array([r["p_exact"] for r in rows])
    ps = np.array([r["p_second_order"] for r in rows])
    crit = np.array([r["criterion"] for r in rows])
    require_probabilities(pe, "sweep p_exact")
    require_probabilities(ps, "sweep p_second_order")
    require_close(pe, np.abs(step_products[:, 0, 0]) ** 2, P_EXACT_TOL, "sweep p_exact")
    tails = np.array([float(tail_closed_form(e, n)) for e, n in zip(etas, ns)])
    S = np.array(ns) / 2 + tails
    require_close(ps, second_order(S, np.array(omegas), T, np.array(ns)),
                  P_CLOSED_FORM_TOL, "sweep p_second_order")
    require_rel(crit, tails / np.array(ns, float) ** 2, CRITERION_RTOL, "sweep criterion")


def sweep_csv(data):
    rows = csv_rows(data)
    require(rows[0] == SWEEP_HEADER, f"sweep CSV header {rows[0]}")
    return [{"n": int(r[0]), "eta_n": float(r[1]), "p_exact": float(r[2]),
             "p_second_order": float(r[3]), "criterion": float(r[4]), "regime": r[5]}
            for r in rows[1:]]


def check_constant_grid(data, eta_spec, omega_spec, n, T):
    rows = sweep_csv(data)
    points = [(e, w) for e in lin_grid(*eta_spec) for w in lin_grid(*omega_spec)]
    etas = [e for e, _ in points]
    omegas = [w for _, w in points]
    m = step_matrices(etas, np.array(omegas) * T / n)
    products = np.linalg.matrix_power(m, n)
    labels = [regime("constant", {"eta": e})[0] for e in etas]
    _check_sweep_rows(rows, [n] * len(points), etas, omegas, T, labels, products)


def check_power_law_n_grid(data, alpha, beta, omega, T, n_spec):
    rows = json.loads(data)
    ns = sorted({int(round(v)) for v in np.geomspace(*n_spec).tolist()})
    params = {"alpha": alpha, "beta": beta}
    etas = [family_eta("power-law", params, n) for n in ns]
    products = np.array([np.linalg.matrix_power(step_matrices(e, omega * T / n), n)
                         for e, n in zip(etas, ns)])
    labels = [regime("power-law", params)[0]] * len(ns)
    _check_sweep_rows(rows, ns, etas, [omega] * len(ns), T, labels, products)


def check_explicit_omega_sweep(data, overlaps, T, omega_spec):
    rows = sweep_csv(data)
    omegas = np.array(lin_grid(*omega_spec))
    n = len(overlaps)
    product = np.broadcast_to(np.eye(2, dtype=complex), (len(omegas), 2, 2))
    for ov in overlaps:
        product = step_matrices(ov, omegas * T / n) @ product
    mean_modulus = math.fsum(abs(o) for o in overlaps) / n
    _check_sweep_rows(rows, [n] * len(omegas), [mean_modulus] * len(omegas),
                      omegas.tolist(), T, ["numeric-only"] * len(omegas), product)


def check_classify(data, kind, params, omega, T):
    record = json.loads(data)
    require(record["schedule"] == {"type": kind, **params}, f"classify schedule {record['schedule']}")
    V = omega**2
    require(abs(record["V"] - V) <= 1e-15 * V and record["T"] == T, "classify V or T")
    label, k = regime(kind, params)
    analytic, numeric = record["analytic"], record["numeric"]
    require(analytic["label"] == label, f"analytic label {analytic['label']}, rule says {label}")
    require_close(analytic["limit_coefficient"], k, P_CLOSED_FORM_TOL, "limit coefficient k")
    require_close(analytic["limit_p"], 1.0 - k * V * T**2, P_CLOSED_FORM_TOL, "limit_p")
    require(numeric["label"] == label and record["agreement"] is True,
            f"numeric label {numeric['label']} disagrees with analytic {label}")
    require_probabilities([analytic["limit_p"]], "classify limit_p")
    # An extrapolated estimate, not a probability the model computes: it may
    # pass 1 by a few ulp on Zeno schedules, so it is held to the probe's own
    # labelling tolerance around the analytic limit instead.
    extrapolated = numeric["extrapolated_limit"]
    require(math.isfinite(extrapolated)
            and abs(extrapolated - analytic["limit_p"]) <= PROBE_TOL * V * T**2,
            f"extrapolated limit {extrapolated!r} is not within the probe tolerance")
    diagnostics = numeric["diagnostics"]
    require([n for n, _ in diagnostics] == [2**j for j in range(6, 21)],
            "classify probe grid is not 64 .. 2^20")
    for n, c in diagnostics:
        ref = float(tail_closed_form(family_eta(kind, params, n), n)) / n**2
        require_rel(c, ref, CRITERION_RTOL, f"classify criterion at n = {n}")
