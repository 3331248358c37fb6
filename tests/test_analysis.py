import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zenokit import (
    ConstantOverlap,
    EvolutionConfig,
    ExplicitOverlaps,
    ExponentialOverlap,
    PowerLawOverlap,
    Regime,
    UnclassifiableScheduleError,
    ValidationError,
    classify_schedule,
    criterion_value,
    intermediate_coefficient,
    limit_pn,
    numeric_limit_probe,
    second_order_with_criterion,
    zeno_sum,
)
from zenokit.analysis import (
    CLOSED_FORM_CROSSOVER,
    DIRECT_SUM_CHUNK,
    INTERMEDIATE_SERIES_CUT,
    second_order_partial,
    second_order_series,
)


class TestZenoSum:
    def test_eta_zero_keeps_only_half_n(self):
        assert zeno_sum(0.0, 7) == 3.5

    def test_eta_one_is_arithmetic_series(self):
        assert zeno_sum(1.0, 4) == 8.0

    def test_mid_eta_direct_value(self):
        assert zeno_sum(0.5, 4) == pytest.approx(4.125, abs=1e-15)

    def test_domain_checks(self):
        with pytest.raises(ValidationError):
            zeno_sum(-0.1, 4)
        with pytest.raises(ValidationError):
            zeno_sum(1.1, 4)
        with pytest.raises(ValidationError):
            zeno_sum(0.5, 0)

    @pytest.mark.parametrize("n", [10, 1000, 100000])
    @pytest.mark.parametrize("eta", [0.1, 0.5, 0.9, 0.99, 1 - 1e-4])
    def test_closed_form_agrees_with_compensated_sum(self, eta, n):
        closed = zeno_sum(eta, n)
        k = np.arange(1, n, dtype=float)
        direct = n / 2.0 + math.fsum(((n - k) * eta**k).tolist())
        assert abs(closed - direct) <= 1e-10 * direct

    @pytest.mark.parametrize("n", [
        DIRECT_SUM_CHUNK - 1, DIRECT_SUM_CHUNK, DIRECT_SUM_CHUNK + 1,
        DIRECT_SUM_CHUNK + 2, 2 * DIRECT_SUM_CHUNK + 1, 3 * DIRECT_SUM_CHUNK + 7,
    ])
    @pytest.mark.parametrize("eta", [1.0, 1 - 1e-5, 1 - 3e-7])
    def test_chunked_direct_sum_equals_one_array_sum(self, eta, n):
        # reference: all n - 1 terms in one array, summed by one fsum
        k = np.arange(1, n, dtype=float)
        one_array = n / 2.0 + math.fsum(((n - k) * np.power(eta, k)).tolist())
        assert zeno_sum(eta, n) == one_array


class TestSecondOrder:
    def test_no_decoherence_gives_global_quadratic_decay(self):
        cfg = EvolutionConfig(omega=1.0, T=0.1, n=50)
        p_so = second_order_with_criterion(1.0, cfg)[0]
        assert p_so == pytest.approx(1 - 0.01, abs=1e-14)

    def test_perfect_decoherence_gives_zeno_scaling(self):
        cfg = EvolutionConfig(omega=1.0, T=0.1, n=50)
        p_so = second_order_with_criterion(0.0, cfg)[0]
        assert p_so == pytest.approx(1 - 0.01 / 50, abs=1e-14)

    def test_mid_eta_value(self):
        cfg = EvolutionConfig(omega=1.0, T=0.1, n=4)
        assert second_order_with_criterion(0.5, cfg)[0] == pytest.approx(
            1 - 2 * 4.125 * 0.025**2, abs=1e-14
        )

    def test_warns_when_step_too_coarse(self):
        cfg = EvolutionConfig(omega=1.0, T=2.0, n=5)
        with pytest.warns(UserWarning, match="unreliable") as record:
            second_order_with_criterion(0.5, cfg)
        assert record[0].filename == __file__


class TestSecondOrderSeries:
    @staticmethod
    def scalar(eta, cfg):
        return [second_order_partial(eta, cfg, i) for i in range(1, cfg.n + 1)]

    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.99, 1.0])
    def test_equals_scalar_reference(self, eta):
        cfg = EvolutionConfig(omega=0.9, T=0.8, n=2000)
        assert list(second_order_series(eta, cfg)) == self.scalar(eta, cfg)

    @pytest.mark.parametrize("eta", [1 - 1e-5, 1 - 1e-7])
    def test_near_one_within_rounding_of_scalar_reference(self, eta):
        cfg = EvolutionConfig(omega=0.9, T=0.8, n=8000)
        got = list(second_order_series(eta, cfg))
        want = self.scalar(eta, cfg)
        assert len(got) == len(want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 4e-16

    def test_near_one_against_high_precision_reference(self):
        mpmath = pytest.importorskip("mpmath")
        eta, n = 1 - 1e-5, 10**5
        cfg = EvolutionConfig(omega=0.9, T=0.8, n=n)
        got = list(second_order_series(eta, cfg))
        with mpmath.workdps(40):
            e = mpmath.mpf(eta)
            weight = mpmath.mpf(cfg.V) * mpmath.mpf(cfg.delta**2)
            for i in (1, 2, 3, 10, 999, 12345, 54321, 99999, n):
                tail = (i * e * (1 - e) + e * (e**i - 1)) / (1 - e) ** 2
                want = 1 - 2 * (mpmath.mpf(i) / 2 + tail) * weight
                assert abs(got[i - 1] - want) <= 1e-14, i

    def test_single_step_and_domain_checks(self):
        cfg = EvolutionConfig(omega=1.0, T=0.1, n=1)
        assert list(second_order_series(1 - 1e-6, cfg)) == [1.0 - 0.01]
        with pytest.raises(ValidationError):
            second_order_series(1.5, cfg)


# eta anywhere in [0, 1], with eta = 1 and the direct-sum band
# 0 < 1 - eta < CLOSED_FORM_CROSSOVER drawn on their own.
ETAS = st.one_of(
    st.floats(0.0, 1.0),
    st.just(1.0),
    st.floats(1.0 - CLOSED_FORM_CROSSOVER, 1.0, exclude_min=True, exclude_max=True),
)
RUNS = st.builds(EvolutionConfig, omega=st.floats(1e-3, 1e3), T=st.floats(1e-3, 1e3),
                 n=st.integers(1, 2000))


class TestSecondOrderSeriesStreaming:
    """simulate checks only the last second-order row before it streams the
    rows; these are the two facts that check rests on."""

    @settings(max_examples=200, deadline=None)
    @given(ETAS, RUNS)
    def test_rows_never_increase_in_the_step(self, eta, cfg):
        rows = list(second_order_series(eta, cfg))
        assert all(a >= b for a, b in zip(rows, rows[1:]))

    @settings(max_examples=200, deadline=None)
    @given(ETAS, RUNS)
    def test_end_is_the_last_row(self, eta, cfg):
        last = list(second_order_series(eta, cfg))[-1]
        end = second_order_partial(eta, cfg, cfg.n)
        if 1.0 - eta >= CLOSED_FORM_CROSSOVER or eta == 1.0:
            assert end == last
        else:
            # The two tails differ by up to an ulp, and adding n/2, the
            # products with V and delta^2 and the subtraction from 1 round
            # each side apart: 3 ulps of the larger of 1 and the row were
            # seen over 10^5 random runs.
            assert abs(end - last) <= 4 * math.ulp(max(1.0, abs(end)))


class TestSecondOrderWithCriterion:
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.9999, 1 - 1e-6, 1.0])
    def test_equals_separate_calls(self, eta):
        cfg = EvolutionConfig(omega=0.7, T=0.9, n=777)
        assert second_order_with_criterion(eta, cfg) == (
            1.0 - 2.0 * zeno_sum(eta, cfg.n) * (cfg.V * cfg.delta**2),
            criterion_value(eta, cfg.n),
        )

    @pytest.mark.filterwarnings("ignore:V\\*delta\\^2")
    @settings(max_examples=200, deadline=None)
    @example(1.0, EvolutionConfig(omega=0.7, T=0.9, n=1000))
    @given(ETAS, RUNS)
    def test_survival_is_second_order_partial(self, eta, cfg):
        # One evaluation order, 1 - 2*S*(V*delta^2), serves both.
        assert second_order_with_criterion(eta, cfg)[0] == second_order_partial(eta, cfg, cfg.n)


class TestCriterionValue:
    def test_vanishes_at_eta_zero(self):
        for n in (1, 5, 50):
            assert criterion_value(0.0, n) == 0.0

    def test_mid_eta_value(self):
        assert criterion_value(0.5, 4) == pytest.approx(2.125 / 16, abs=1e-15)

    def test_intermediate_family_limit(self):
        # eta = 1 - 1/n approaches 1/alpha + (e^-alpha - 1)/alpha^2 at alpha=1
        n = 10**6
        target = 1.0 + (math.exp(-1.0) - 1.0)
        assert criterion_value(1.0 - 1.0 / n, n) == pytest.approx(target, rel=1e-4)

    def test_identity_with_zeno_sum(self):
        for eta in (0.01, 0.3, 0.77, 0.9999, 1 - 1e-6, 1.0):
            for n in (1, 2, 17, 400):
                lhs = criterion_value(eta, n)
                rhs = (zeno_sum(eta, n) - n / 2.0) / n**2
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


class TestClassify:
    @pytest.mark.parametrize(
        "schedule,label,k",
        [
            (ConstantOverlap(eta=1.0), Regime.FREE_EVOLUTION, 1.0),
            (ConstantOverlap(eta=0.0), Regime.ZENO, 0.0),
            (ConstantOverlap(eta=0.99), Regime.ZENO, 0.0),
            (PowerLawOverlap(alpha=1, beta=0.5), Regime.ZENO, 0.0),
            (PowerLawOverlap(alpha=3, beta=2), Regime.FREE_EVOLUTION, 1.0),
            (ExponentialOverlap(alpha=1, beta=0.1), Regime.FREE_EVOLUTION, 1.0),
        ],
    )
    def test_table_rows(self, schedule, label, k):
        c = classify_schedule(schedule)
        assert c.label is label
        assert c.limit_coefficient == k

    def test_intermediate_coefficient_at_alpha_two(self):
        c = classify_schedule(PowerLawOverlap(alpha=2, beta=1))
        assert c.label is Regime.INTERMEDIATE
        assert c.limit_coefficient == pytest.approx(0.5677, abs=1e-4)

    def test_intermediate_coefficient_limits(self):
        assert intermediate_coefficient(1e-6) == pytest.approx(1.0, abs=1e-5)
        assert intermediate_coefficient(1e3) == pytest.approx(0.0, abs=3e-3)

    def test_intermediate_coefficient_against_high_precision_reference(self):
        mpmath = pytest.importorskip("mpmath")
        alphas = np.geomspace(1e-300, 10.0, 400).tolist() + [
            1e-17, 1e-8, 0.1, 0.25, 1.0, 2.0, 10.0,
            math.nextafter(INTERMEDIATE_SERIES_CUT, 0.0), INTERMEDIATE_SERIES_CUT,
        ]
        with mpmath.workdps(500):
            for alpha in alphas:
                a = mpmath.mpf(alpha)
                want = 2 * (1 / a + mpmath.expm1(-a) / a**2)
                got = intermediate_coefficient(alpha)
                assert abs((got - want) / want) <= 4.4e-16, alpha

    def test_explicit_is_numeric_only(self):
        with pytest.raises(UnclassifiableScheduleError, match="numeric-only"):
            classify_schedule(ExplicitOverlaps(overlaps=(0.9, 0.8)))


class TestLimitPn:
    def test_constant_below_one_freezes(self):
        assert limit_pn(ConstantOverlap(eta=0.3), V=1.0, T=1.0) == 1.0

    def test_fast_decay_recovers_free_evolution(self):
        assert limit_pn(PowerLawOverlap(alpha=1, beta=2), V=1.0, T=0.5) == 0.75

    def test_weak_intermediate_tends_to_free_evolution(self):
        lim = limit_pn(PowerLawOverlap(alpha=1e-8, beta=1), V=1.0, T=1.0)
        assert lim == pytest.approx(0.0, abs=1e-7)  # 1 - k(alpha)*V*T^2, k -> 1

    def test_explicit_rejected(self):
        with pytest.raises(ValidationError):
            limit_pn(ExplicitOverlaps(overlaps=(0.5,)), V=1.0, T=1.0)


class TestNumericProbe:
    def test_requires_minimum_grid(self):
        cfg = EvolutionConfig(omega=1.0, T=0.3, n=64)
        with pytest.raises(ValidationError):
            numeric_limit_probe(PowerLawOverlap(alpha=1, beta=2), cfg, 32)

    def test_fast_power_law_reaches_free_evolution(self):
        cfg = EvolutionConfig(omega=1.0, T=0.3, n=64)
        r = numeric_limit_probe(PowerLawOverlap(alpha=1, beta=2), cfg, 2**20)
        assert r.label is Regime.FREE_EVOLUTION
        assert abs(r.extrapolated_limit - 0.91) <= 1e-3 * 0.09

    def test_intermediate_alpha_one(self):
        cfg = EvolutionConfig(omega=1.0, T=0.3, n=64)
        r = numeric_limit_probe(PowerLawOverlap(alpha=1, beta=1), cfg, 2**20)
        assert r.label is Regime.INTERMEDIATE
        k = 2 * math.exp(-1.0)
        assert r.limit_coefficient == pytest.approx(k, rel=1e-3)

    def test_slow_constant_still_labelled_zeno(self):
        cfg = EvolutionConfig(omega=1.0, T=0.3, n=64)
        r = numeric_limit_probe(ConstantOverlap(eta=0.99), cfg, 2**20)
        assert r.label is Regime.ZENO
        assert len(r.diagnostics) == 15
        # slow convergence is visible: criterion values shrink monotonically
        values = [c for _, c in r.diagnostics]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_agrees_with_analytic_table_on_grid(self):
        cfg = EvolutionConfig(omega=1.0, T=0.3, n=64)
        for alpha in (0.5, 1.0, 2.0, 5.0):
            for beta in (0.5, 1.0, 2.0, 3.0):
                sched = PowerLawOverlap(alpha=alpha, beta=beta)
                analytic = classify_schedule(sched)
                numeric = numeric_limit_probe(sched, cfg, 2**18)
                assert numeric.label is analytic.label, (alpha, beta)
