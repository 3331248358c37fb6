import math

import numpy as np
import pytest

from zenokit import (
    CapacityError,
    ConstantOverlap,
    EvolutionConfig,
    ExplicitOverlaps,
    PowerLawOverlap,
    ValidationError,
    b_word_from_alpha,
    enumerate_branches,
    make_general_unitary,
    make_rabi_unitary,
    propagate_projected,
    survival_series,
)


def random_unitary(rng):
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    return make_general_unitary(
        complex(x[0], x[1]), complex(x[2], x[3]), rng.uniform(0, 2 * math.pi)
    )


def random_overlaps(rng, n):
    mods = rng.uniform(0, 1, n)
    phases = rng.uniform(0, 2 * math.pi, n)
    return ExplicitOverlaps(overlaps=tuple(mods * np.exp(1j * phases)))


class TestBWord:
    def test_all_holds(self):
        assert b_word_from_alpha("====") == ((0, 0, 0, 0), True)

    def test_two_flips_cancel(self):
        assert b_word_from_alpha("≠≠==") == ((1, 0, 0, 0), True)

    def test_separated_flips_count_eta_powers(self):
        bits, back = b_word_from_alpha("≠==≠=")
        assert bits == (1, 1, 1, 0, 0)
        assert back is True
        assert sum(bits) == 3  # contributes eta^3 in the cross-term count

    def test_odd_flip_count_leaves_state(self):
        assert b_word_from_alpha("≠").returns_to_start is False

    def test_ascii_aliases(self):
        assert b_word_from_alpha("x=!") == b_word_from_alpha("≠=≠")

    def test_rejects_empty_and_garbage(self):
        with pytest.raises(ValidationError):
            b_word_from_alpha("")
        with pytest.raises(ValidationError):
            b_word_from_alpha("=?=")


class TestEnumerateBranches:
    def test_single_step_is_stay_amplitude(self):
        u = make_rabi_unitary(1.3, 0.2)
        p = enumerate_branches(u, ConstantOverlap(eta=0.4), 1)
        assert p == pytest.approx(abs(u.c_eq_0) ** 2, abs=1e-15)

    def test_two_step_closed_form(self):
        theta, eta = 0.1, 0.9
        u = make_rabi_unitary(1.0, theta)
        p = enumerate_branches(u, ConstantOverlap(eta=eta), 2)
        expected = (math.cos(theta) ** 2 - eta * math.sin(theta) ** 2) ** 2
        assert p == pytest.approx(expected, abs=1e-15)
        assert p == pytest.approx(0.96249, abs=1e-5)

    def test_capacity_cap_errors_loudly(self):
        u = make_rabi_unitary(1.0, 0.1)
        with pytest.raises(CapacityError, match="2\\^n"):
            enumerate_branches(u, ConstantOverlap(eta=0.5), 21)


class TestOracleEquivalence:
    def test_matches_propagation_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            u = random_unitary(rng)
            sched = random_overlaps(rng, n)
            p_fast = propagate_projected(u, sched, n).p_exact
            p_oracle = enumerate_branches(u, sched, n)
            assert abs(p_fast - p_oracle) <= 1e-12
            assert -1e-12 <= p_fast <= 1 + 1e-12


class TestPropagateProjected:
    def test_eta_one_equals_matrix_power(self):
        for omega, T, n in [(1.0, 1.0, 10), (0.7, 2.0, 6), (2.0, 0.5, 17)]:
            u = make_rabi_unitary(omega, T / n)
            p = propagate_projected(u, ConstantOverlap(eta=1.0), n).p_exact
            direct = abs(np.linalg.matrix_power(u.matrix(), n)[0, 0]) ** 2
            assert abs(p - direct) <= 1e-12

    def test_eta_zero_closed_form(self):
        u = make_rabi_unitary(1.0, 0.1)
        p = propagate_projected(u, ConstantOverlap(eta=0.0), 10).p_exact
        assert abs(p - math.cos(0.1) ** 20) <= 1e-12
        assert p == pytest.approx(0.90469, abs=1e-5)

    def test_undisturbed_run_recovers_global_rotation(self):
        u = make_rabi_unitary(1.0, 0.1)
        p = propagate_projected(u, ConstantOverlap(eta=1.0), 10).p_exact
        assert p == pytest.approx(math.cos(1.0) ** 2, abs=1e-12)

    def test_series_is_recorded_per_step(self):
        u = make_rabi_unitary(1.0, 0.2)
        r = propagate_projected(u, ConstantOverlap(eta=0.5), 6)
        assert len(r.series) == 6
        assert r.series[-1] == r.p_exact
        assert all(0.0 <= p <= 1.0 + 1e-12 for p in r.series)


class TestSurvivalSeries:
    def test_frozen_without_free_evolution(self):
        cfg = EvolutionConfig(omega=0.0, T=1.0, n=5)
        r = survival_series(cfg, ConstantOverlap(eta=0.3))
        assert r.p_exact == 1.0
        assert all(p == 1.0 for p in r.series)

    def test_matches_closed_forms_at_eta_one(self):
        cfg = EvolutionConfig(omega=1.0, T=0.1, n=100)
        r = survival_series(cfg, ConstantOverlap(eta=1.0))
        assert r.p_exact == pytest.approx(math.cos(0.1) ** 2, abs=1e-12)
        assert r.p_second_order == pytest.approx(0.99, abs=1e-12)

    def test_strong_zeno_schedule_stays_near_one(self):
        cfg = EvolutionConfig(omega=1.0, T=1.0, n=10**6)
        r = survival_series(cfg, PowerLawOverlap(alpha=1.0, beta=0.5))
        assert abs(r.p_exact - 1.0) < 1e-2
