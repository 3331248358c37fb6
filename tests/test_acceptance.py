"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here, not configurable.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest
from click.testing import CliRunner

from zenokit import (
    ConstantOverlap,
    EvolutionConfig,
    ExponentialOverlap,
    ExplicitOverlaps,
    FreeParticleParams,
    PointerModelParams,
    BrownianModelParams,
    PowerLawOverlap,
    Regime,
    brownian_schedule,
    classify_schedule,
    criterion_value,
    enumerate_branches,
    free_particle_variance,
    gaussian_model_schedule,
    intermediate_coefficient,
    make_general_unitary,
    make_rabi_unitary,
    numeric_limit_probe,
    propagate_projected,
    quadratic_validity_time,
    second_order_partial,
    zeno_sum,
)
from zenokit.cli import main as cli_main
from zenokit.evolution import ORACLE_MAX_STEPS


def report(num, text):
    print(f"\nACCEPTANCE PASS criterion {num}: {text}")


def test_criterion_1_oracle_equivalence():
    # fixed default seed; override with ZENO_TEST_SEED to vary instances
    rng = np.random.default_rng(int(os.environ.get("ZENO_TEST_SEED", "20240817")))
    start = time.time()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, ORACLE_MAX_STEPS + 1))
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        u = make_general_unitary(
            complex(x[0], x[1]), complex(x[2], x[3]), rng.uniform(0, 2 * math.pi)
        )
        mods = rng.uniform(0, 1, n)
        phases = rng.uniform(0, 2 * math.pi, n)
        sched = ExplicitOverlaps(overlaps=tuple(mods * np.exp(1j * phases)))
        gap = abs(
            list(propagate_projected(u, sched, n))[-1]
            - enumerate_branches(u, sched, n)
        )
        worst = max(worst, gap)
        assert gap <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, f"200 random instances, worst oracle gap {worst:.2e}, {elapsed:.1f}s")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_2_limiting_cases():
    # the grid deliberately includes coarse (omega, T, n) corners where the
    # step-size warning fires; the closed-form identities hold regardless
    omegas = [0.3, 0.7, 1.1, 1.7, 2.3]
    times = [0.05, 0.2, 0.6, 1.0, 1.5]
    ns = [3, 9]
    points = list(itertools.product(omegas, times, ns))
    assert len(points) == 50
    for omega, T, n in points:
        cfg = EvolutionConfig(omega=omega, T=T, n=n)
        u = cfg.step_unitary()
        p1 = list(propagate_projected(u, ConstantOverlap(eta=1.0), n))[-1]
        m = np.array(u.coefficients).reshape(2, 2)
        direct = abs(np.linalg.matrix_power(m, n)[0, 0]) ** 2
        assert abs(p1 - direct) <= 1e-12
        p0 = list(propagate_projected(u, ConstantOverlap(eta=0.0), n))[-1]
        assert abs(p0 - abs(u.a) ** (2 * n)) <= 1e-12
        # second order reduces to the two closed forms exactly
        V, delta = cfg.V, cfg.delta
        assert second_order_partial(1.0, cfg, cfg.n) == pytest.approx(
            1 - V * (n * delta) ** 2, abs=1e-12
        )
        assert second_order_partial(0.0, cfg, cfg.n) == pytest.approx(
            1 - n * V * delta**2, abs=1e-12
        )
    report(2, "eta=1 and eta=0 closed forms recovered on a 50-point grid")


def test_criterion_3_second_order_residual_shrinks_like_delta_fourth():
    start = time.time()
    worst_ratio = math.inf
    for eta in (0.0, 0.3, 0.7, 1.0):
        for n in (10, 100):
            gaps = []
            for T in (0.2, 0.1, 0.05):
                cfg = EvolutionConfig(omega=1.0, T=T, n=n)
                p_exact = list(propagate_projected(
                    cfg.step_unitary(), ConstantOverlap(eta=eta), n
                ))[-1]
                p_so = second_order_partial(eta, cfg, cfg.n)
                gaps.append(abs(p_exact - p_so))
            for wide, narrow in zip(gaps, gaps[1:]):
                ratio = wide / narrow
                worst_ratio = min(worst_ratio, ratio)
                assert ratio >= 12.0, (eta, n, gaps)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(3, f"halving T shrinks the residual by >= {worst_ratio:.1f}x "
              f"(theoretical 16), {elapsed:.2f}s")


def test_criterion_4_regime_table_reproduction():
    start = time.time()
    V, T = 1.0, 0.3
    scale = V * T**2
    cases = [
        (ConstantOverlap(eta=0.7), Regime.ZENO, 1.0),
        (PowerLawOverlap(alpha=1, beta=0.5), Regime.ZENO, 1.0),
        (PowerLawOverlap(alpha=1, beta=1.5), Regime.FREE_EVOLUTION, 1 - scale),
        (PowerLawOverlap(alpha=1, beta=2), Regime.FREE_EVOLUTION, 1 - scale),
        (PowerLawOverlap(alpha=1, beta=3), Regime.FREE_EVOLUTION, 1 - scale),
        (ExponentialOverlap(alpha=1, beta=0.1), Regime.FREE_EVOLUTION, 1 - scale),
    ]
    for alpha in (0.5, 1.0, 2.0, 5.0):
        cases.append((
            PowerLawOverlap(alpha=alpha, beta=1),
            Regime.INTERMEDIATE,
            1 - intermediate_coefficient(alpha) * scale,
        ))
    worst = 0.0
    for sched, label, target in cases:
        probe = numeric_limit_probe(sched, 2**20)
        err = abs(probe.limit_p(V, T) - target)
        worst = max(worst, err)
        assert probe.label is label, sched
        assert err <= 1e-3 * scale, (sched, err)
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(4, f"10 schedules, worst extrapolation error {worst:.2e} "
              f"(tol {1e-3 * scale:.1e}), {elapsed:.1f}s")


def test_criterion_5_criterion_identity_on_grid():
    etas = np.concatenate([
        np.linspace(0.001, 0.999, 36),
        [0.0, 1 - 1e-4, 1 - 1e-5, 1 - 1e-6],
    ])
    ns = sorted(set(int(round(v)) for v in np.geomspace(1, 20000, 32)))[:25]
    points = list(itertools.product(etas, ns))
    assert len(points) == 1000
    for eta, n in points:
        lhs = criterion_value(eta, n)
        rhs = (zeno_sum(eta, n) - n / 2.0) / n**2
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-30), (eta, n)
    report(5, f"criterion identity holds to 1e-12 relative on {len(points)} points")


def test_criterion_6_physical_models():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m, sigma, hbar = np.exp(rng.uniform(-40, 10, 3))
        p = FreeParticleParams(m=m, sigma=sigma, hbar=hbar)
        t_c = quadratic_validity_time(p)
        assert abs(t_c - hbar / math.sqrt(free_particle_variance(p))) <= 1e-12 * t_c
    reference = FreeParticleParams(m=1e-26, sigma=1e-10)
    t_c = quadratic_validity_time(reference)
    assert t_c == pytest.approx(2.68e-12, rel=0.01)
    # the often-quoted 4e-13 s does not follow from the formula; documented
    # as a discrepancy, not asserted

    for v in (0.01, 1.0, 50.0):
        for c in (0.5, 1.0, 2.0):
            sched = gaussian_model_schedule(
                PointerModelParams(v=v, sigma=1.3, c_ratio=c, T=0.8)
            )
            assert classify_schedule(sched).label is Regime.FREE_EVOLUTION

    limits = [
        classify_schedule(brownian_schedule(BrownianModelParams(D=d, T=1.0))).limit_p(V=1.0, T=0.5)
        for d in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    ks = [(1 - lim) / 0.25 for lim in limits]
    assert all(a > b for a, b in zip(ks, ks[1:]))
    report(6, f"t_c = {t_c:.3e} s (both formulas agree); pointer model always "
              "free evolution; Brownian decay coefficient monotone in D")


def test_criterion_7_recoherence_demo():
    from zenokit import recoherence_demo

    start = time.time()
    stages = recoherence_demo()
    _, rho1, _ = stages[1]
    _, rho2, _ = stages[2]
    assert np.abs(rho1.matrix - np.eye(2) / 2).max() <= 1e-12
    assert np.abs(rho2.matrix - np.full((2, 2), 0.5)).max() <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 0.1
    report(7, f"decoherence and revival matrices exact to 1e-12, {elapsed * 1e3:.1f}ms")


def test_criterion_8_cli_contract():
    runner = CliRunner()

    def run(*args):
        return runner.invoke(cli_main, list(args))

    # determinism: byte-identical repeated output
    for args in (
        ("simulate", "--omega", "1", "--T", "0.5", "--n", "30", "--eta", "0.6"),
        ("sweep", "--grid", "eta=lin:0:1:9", "--n", "8", "--T", "0.4"),
        ("recohere",),
        ("classify", "--schedule", "power-law", "--alpha", "1", "--beta", "2",
         "--n-max", "65536"),
    ):
        assert run(*args).output == run(*args).output

    # exit-code matrix
    assert run("simulate", "--omega", "1", "--T", "1", "--n", "5",
               "--eta", "0.5").exit_code == 0
    assert run("simulate", "--omega", "1", "--T", "1", "--n", "5",
               "--eta", "1.5").exit_code == 2
    assert run("simulate", "--omega", "1", "--T", "1", "--n", "33",
               "--eta", "0", "--oracle").exit_code == 3
    assert run("sweep", "--grid", "eta=", "--n", "4").exit_code == 2
    assert run("sweep", "--grid", "eta=lin:0:1:2000", "--grid",
               "T=lin:0.1:1:2000", "--n", "4").exit_code == 3

    # emitted probabilities stay in [0, 1]
    out = json.loads(run("sweep", "--grid", "eta=lin:0:1:11", "--n", "10",
                         "--T", "0.3", "--format", "json").output)
    for row in out:
        assert -1e-12 <= row["p_exact"] <= 1 + 1e-12
    report(8, "deterministic output and 0/2/3 exit-code matrix verified")
