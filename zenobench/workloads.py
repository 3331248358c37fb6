"""The four workloads: fixed lists of zenokit CLI invocations drawn from a seed.

A seed changes parameter values only. The number of invocations, every
step count, grid size and the closed-form/direct-sum split of every
second-order sum are the same for every seed, so each pass does the same
amount of work. Every parameter keeps V*T^2 <= 1 and V*delta^2 far below
0.1, so no invocation triggers the step-size warning and every
second-order probability stays in [0, 1].
"""

from __future__ import annotations

import cmath
import json
import random
from dataclasses import dataclass
from pathlib import Path

NEAR_ONE_ETA = 1.0 - 1e-5


@dataclass(frozen=True)
class Workload:
    """CLI argument lists for one pass, and how to check their outputs.

    Each check is (name of a function in checks.py, indices of the calls
    whose stdout it takes, further arguments). The checks are named, not
    imported, so that this process loads numpy only after the timed
    passes: a child's peak RSS includes its parent's at the fork.
    """

    calls: list[list[str]]
    checks: list[tuple[str, tuple[int, ...], tuple]]


def _f(x: float) -> str:
    return repr(float(x))


def sweep_family(rng: random.Random, workdir: Path) -> Workload:
    T = rng.uniform(0.5, 1.0)
    e0, e1 = rng.uniform(0.3, 0.5), rng.uniform(0.95, 0.999)
    w0, w1 = rng.uniform(0.1, 0.3), rng.uniform(0.8, 1.0)
    # alpha in [0.5, 1.5] with beta = 2 puts the closed-form/direct-sum
    # crossover (alpha/n^2 = 1e-4) between n = 64 and n = 128 on every seed.
    alpha, omega = rng.uniform(0.5, 1.5), rng.uniform(0.3, 1.0)
    calls = [
        ["sweep", "--grid", f"eta=lin:{_f(e0)}:{_f(e1)}:30",
         "--grid", f"omega=lin:{_f(w0)}:{_f(w1)}:30", "--n", "1000", "--T", _f(T)],
        ["sweep", "--grid", "n=geom:16:65536:13", "--schedule", "power-law",
         "--alpha", _f(alpha), "--beta", "2", "--omega", _f(omega), "--T", _f(T),
         "--format", "json"],
    ]
    return Workload(calls, [
        ("check_constant_grid", (0,), ((e0, e1, 30), (w0, w1, 30), 1000, T)),
        ("check_power_law_n_grid", (1,), (alpha, 2.0, omega, T, (16, 65536, 13))),
    ])


def step_walk(rng: random.Random, workdir: Path) -> Workload:
    omega, T, eta = rng.uniform(0.3, 1.0), rng.uniform(0.5, 1.0), rng.uniform(0.9, 0.99)
    n = 100_000
    sim = ["simulate", "--omega", _f(omega), "--T", _f(T), "--n", str(n), "--eta", _f(eta)]
    # Moduli <= 0.99 keep the mean modulus, the schedule's second-order eta,
    # on the closed-form side of the crossover.
    overlaps = [cmath.rect(rng.uniform(0.9, 0.99), rng.uniform(-0.2, 0.2))
                for _ in range(2000)]
    T2, w1 = rng.uniform(0.5, 1.0), rng.uniform(0.8, 1.0)
    config = workdir / "step-walk-explicit.json"
    config.write_text(json.dumps({
        "schedule": "explicit",
        "overlaps": [repr(o) for o in overlaps],
        "n": len(overlaps),
        "T": T2,
        "grid": [f"omega=lin:0.1:{_f(w1)}:48"],
    }))
    calls = [sim, sim + ["--format", "json"], ["sweep", "--config", str(config)]]

    return Workload(calls, [
        ("check_simulate_csv_json", (0, 1), (omega, T, n, eta)),
        ("check_explicit_omega_sweep", (2,), (overlaps, T2, (0.1, w1, 48))),
    ])


def near_one(rng: random.Random, workdir: Path) -> Workload:
    n = 8000
    w1, T1 = rng.uniform(0.3, 1.0), rng.uniform(0.5, 1.0)
    w2, T2 = rng.uniform(0.3, 1.0), rng.uniform(0.5, 1.0)
    samples = sorted(rng.sample(range(1, n + 1), 16))
    calls = [
        ["simulate", "--omega", _f(w1), "--T", _f(T1), "--n", str(n), "--eta", "1"],
        ["simulate", "--omega", _f(w2), "--T", _f(T2), "--n", str(n),
         "--eta", _f(NEAR_ONE_ETA)],
    ]

    return Workload(calls, [
        ("check_simulate_eta_one", (0,), (w1, T1, n)),
        ("check_simulate_near_one", (1,), (w2, T2, n, NEAR_ONE_ETA, samples)),
    ])


def cross_check(rng: random.Random, workdir: Path) -> Workload:
    omega, T = rng.uniform(0.3, 1.0), rng.uniform(0.5, 1.0)
    # Each range keeps the schedule's closed-form/direct-sum split on the
    # probe grid n = 64 .. 2^20 the same for every seed.
    schedules = [
        ("power-law", {"alpha": rng.uniform(0.5, 2.0), "beta": rng.uniform(0.3, 0.6)}),
        ("power-law", {"alpha": rng.uniform(0.9, 1.6), "beta": 1.0}),
        ("power-law", {"alpha": rng.uniform(0.5, 1.5), "beta": 2.0}),
        ("exponential", {"alpha": rng.uniform(0.5, 1.0), "beta": rng.uniform(0.2, 0.5)}),
        ("constant", {"eta": rng.uniform(0.3, 0.95)}),
        ("constant", {"eta": 1.0}),
    ]
    calls, todo = [], []
    for kind, params in schedules:
        flags = [x for k, v in params.items() for x in (f"--{k}", _f(v))]
        todo.append(("check_classify", (len(calls),), (kind, params, omega, T)))
        calls.append(["classify", "--schedule", kind, *flags,
                      "--omega", _f(omega), "--T", _f(T)])
    for n in range(16, 21):
        eta = rng.uniform(0.3, 0.9)
        todo.append(("check_simulate_oracle", (len(calls),), (omega, T, n, eta)))
        calls.append(["simulate", "--omega", _f(omega), "--T", _f(T), "--n", str(n),
                      "--eta", _f(eta), "--oracle"])
    return Workload(calls, todo)


WORKLOADS = {
    "sweep-family": sweep_family,
    "step-walk": step_walk,
    "near-one": near_one,
    "cross-check": cross_check,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}/{seed}"), workdir)
