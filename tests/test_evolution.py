import cmath
import collections
import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zenokit import (
    CapacityError,
    ConstantOverlap,
    EvolutionConfig,
    ExplicitOverlaps,
    PowerLawOverlap,
    enumerate_branches,
    make_general_unitary,
    make_rabi_unitary,
    propagate_projected,
    realize,
    second_order_partial,
)
from zenokit.evolution import ORACLE_MAX_STEPS


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


def full_enumeration(u, overlaps):
    """Survival as the plain sum over all 2^n branch words, in numpy.

    Word bit alpha_i is 0 for '=' and 1 for '!='; the state b_i is the
    running parity of the word, and a word counts when b_n = 0. Its weight
    is the product of coef[alpha_i, b_i] times the overlaps of the steps
    that end in state 1. Kept here as a second oracle that shares no code
    with the library's meet-in-the-middle sum; small n only.
    """
    n = len(overlaps)
    c_eq_0, c_neq_0, c_neq_1, c_eq_1 = u.coefficients
    coef = np.array([[c_eq_0, c_eq_1], [c_neq_0, c_neq_1]], dtype=complex)
    words = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    b = np.cumsum(words, axis=1) & 1
    keep = b[:, -1] == 0
    amps = np.prod(coef[words[keep], b[keep]], axis=1)
    brackets = np.prod(np.where(b[keep] == 1, np.asarray(overlaps)[None, :], 1.0), axis=1)
    total = amps * brackets
    return abs(complex(math.fsum(total.real), math.fsum(total.imag))) ** 2


def mpmath_chain(u, overlaps, mpmath):
    """Survival after each step, from the recurrence run in 50-digit arithmetic."""
    series = []
    with mpmath.workdps(50):
        c_eq_0, c_neq_0, c_neq_1, c_eq_1 = (mpmath.mpc(c) for c in u.coefficients)
        a0, a1 = mpmath.mpc(1), mpmath.mpc(0)
        for ov in overlaps:
            a0, a1 = c_eq_0 * a0 + c_neq_0 * a1, (c_neq_1 * a0 + c_eq_1 * a1) * mpmath.mpc(ov)
            series.append(float(abs(a0) ** 2))
    return series


angles = st.floats(0.0, 2 * math.pi)


@st.composite
def unitaries(draw):
    theta = draw(st.floats(0.0, math.pi / 2))
    return make_general_unitary(
        math.cos(theta) * cmath.exp(1j * draw(angles)),
        math.sin(theta) * cmath.exp(1j * draw(angles)),
        draw(angles),
    )


@st.composite
def explicit_schedules(draw):
    n = draw(st.integers(1, 64))
    moduli = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return ExplicitOverlaps(overlaps=tuple(r * cmath.exp(1j * draw(angles)) for r in moduli))


class TestSurvivalListProperties:
    @given(unitaries(), st.integers(1, 64))
    def test_full_decoherence_gives_stay_probability_powers(self, u, n):
        series = list(propagate_projected(u, ConstantOverlap(eta=0.0), n))
        assert len(series) == n
        for i, p in enumerate(series, start=1):
            assert abs(p - abs(u.a) ** (2 * i)) <= 1e-12

    @given(unitaries(), explicit_schedules())
    def test_every_entry_is_a_probability(self, u, schedule):
        series = list(propagate_projected(u, schedule, len(schedule.overlaps)))
        assert all(0.0 <= p <= 1.0 for p in series)

    def test_overlaps_in_the_modulus_slack_stay_at_most_one(self):
        # each overlap lifts the norm by 1e-12; unclamped, the chain peaks near 1 + 1e-9
        overlaps = ExplicitOverlaps(overlaps=(1 + 1e-12,) * 1000)
        u = make_rabi_unitary(1.0, math.pi / 1000)
        assert max(propagate_projected(u, overlaps, 1000)) == 1.0


class TestEnumerateBranches:
    def test_single_step_is_stay_amplitude(self):
        u = make_rabi_unitary(1.3, 0.2)
        p = enumerate_branches(u, ConstantOverlap(eta=0.4), 1)
        assert p == pytest.approx(abs(u.coefficients[0]) ** 2, abs=1e-15)

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
            enumerate_branches(u, ConstantOverlap(eta=0.5), 33)

    def test_matches_the_full_enumeration(self):
        rng = np.random.default_rng(13)
        for n in list(range(1, 15)) * 3:
            u = random_unitary(rng)
            sched = random_overlaps(rng, n)
            p_full = full_enumeration(u, sched.overlaps)
            assert abs(enumerate_branches(u, sched, n) - p_full) <= 1e-14

    def test_matches_a_50_digit_chain_up_to_the_cap(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(17)
        for n in [*range(1, 9), 15, 16, 17, 20, 21, 24, 27, 30, 31, ORACLE_MAX_STEPS]:
            u = random_unitary(rng)
            sched = random_overlaps(rng, n)
            want = mpmath_chain(u, sched.overlaps, mpmath)[-1]
            assert abs(enumerate_branches(u, sched, n) - want) <= 1e-14


class TestOracleEquivalence:
    def test_matches_propagation_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            u = random_unitary(rng)
            sched = random_overlaps(rng, n)
            p_fast = list(propagate_projected(u, sched, n))[-1]
            p_oracle = enumerate_branches(u, sched, n)
            assert abs(p_fast - p_oracle) <= 1e-12
            assert -1e-12 <= p_fast <= 1 + 1e-12


class TestPropagateProjected:
    def test_eta_one_equals_matrix_power(self):
        for omega, T, n in [(1.0, 1.0, 10), (0.7, 2.0, 6), (2.0, 0.5, 17)]:
            u = make_rabi_unitary(omega, T / n)
            p = list(propagate_projected(u, ConstantOverlap(eta=1.0), n))[-1]
            m = np.array(u.coefficients).reshape(2, 2)
            direct = abs(np.linalg.matrix_power(m, n)[0, 0]) ** 2
            assert abs(p - direct) <= 1e-12

    def test_eta_zero_closed_form(self):
        u = make_rabi_unitary(1.0, 0.1)
        p = list(propagate_projected(u, ConstantOverlap(eta=0.0), 10))[-1]
        assert abs(p - math.cos(0.1) ** 20) <= 1e-12
        assert p == pytest.approx(0.90469, abs=1e-5)

    def test_undisturbed_run_recovers_global_rotation(self):
        u = make_rabi_unitary(1.0, 0.1)
        p = list(propagate_projected(u, ConstantOverlap(eta=1.0), 10))[-1]
        assert p == pytest.approx(math.cos(1.0) ** 2, abs=1e-12)

    def test_series_is_recorded_per_step(self):
        u = make_rabi_unitary(1.0, 0.2)
        series = list(propagate_projected(u, ConstantOverlap(eta=0.5), 6))
        assert len(series) == 6
        # entry i is the survival of the run cut after step i
        assert series == [
            list(propagate_projected(u, ConstantOverlap(eta=0.5), i))[-1] for i in range(1, 7)
        ]
        assert all(0.0 <= p <= 1.0 + 1e-12 for p in series)


class TestRecurrenceErrorBound:
    """The O(n) recurrence stays within n*eps of a 50-digit run of the same
    float step coefficients, at every step of an n-step run (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3). Worst
    gaps seen on these cases: 0.035*n*eps at n = 10^3 and 0.008*n*eps at
    n = 10^4. At n = 10^6 the last survival of a Rabi step lay within
    0.22*n*eps of a 40-digit power of its step matrix (at eta = 0.99; 0.19 at
    0.5, 0.0011 at 0 and 0.0004 at 1)."""

    @pytest.mark.parametrize("n", [10, 100, 1000, 10**4])
    @pytest.mark.parametrize("kind", ["constant", "explicit"])
    def test_within_n_eps_of_a_50_digit_chain(self, kind, n):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(n)
        for _ in range(2):
            # a random general step that rotates by omega*T/n, omega*T in
            # [0.5, 3], so the survival stays away from 0 at any n
            theta = rng.uniform(0.5, 3.0) / n
            a, b, phi = rng.uniform(0, 2 * math.pi, 3).tolist()
            u = make_general_unitary(math.cos(theta) * cmath.exp(1j * a),
                                     math.sin(theta) * cmath.exp(1j * b), phi)
            if kind == "constant":
                sched = ConstantOverlap(eta=float(rng.uniform(0, 1)))
            else:
                sched = random_overlaps(rng, n)
            want = mpmath_chain(u, realize(sched, n), mpmath)
            got = list(propagate_projected(u, sched, n))
            assert max(abs(g - w) for g, w in zip(got, want)) <= n * sys.float_info.epsilon

    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.99, 1.0])
    def test_last_survival_at_a_million_steps(self, eta):
        mpmath = pytest.importorskip("mpmath")
        n = 10**6
        u = make_rabi_unitary(1, 1 / n)
        # Only the last survival value is kept: the deque drops the others.
        got, = collections.deque(propagate_projected(u, ConstantOverlap(eta=eta), n), maxlen=1)
        with mpmath.workdps(40):
            c_eq_0, c_neq_0, c_neq_1, c_eq_1 = map(mpmath.mpc, u.coefficients)
            step = mpmath.matrix([[c_eq_0, c_neq_0], [eta * c_neq_1, eta * c_eq_1]])
            want = float(abs((step**n)[0, 0]) ** 2)
        assert abs(got - want) <= n * sys.float_info.epsilon


class TestSurvivalSeries:
    """The chain of one EvolutionConfig, as the CLI runs it."""

    @staticmethod
    def run(cfg, schedule):
        return list(propagate_projected(cfg.step_unitary(), schedule, cfg.n))

    def test_frozen_without_free_evolution(self):
        cfg = EvolutionConfig(omega=0.0, T=1.0, n=5)
        series = self.run(cfg, ConstantOverlap(eta=0.3))
        assert series[-1] == 1.0
        assert all(p == 1.0 for p in series)

    def test_matches_closed_forms_at_eta_one(self):
        cfg = EvolutionConfig(omega=1.0, T=0.1, n=100)
        p_exact = self.run(cfg, ConstantOverlap(eta=1.0))[-1]
        assert p_exact == pytest.approx(math.cos(0.1) ** 2, abs=1e-12)
        p_so = second_order_partial(1.0, cfg)
        assert p_so == pytest.approx(0.99, abs=1e-12)

    def test_strong_zeno_schedule_stays_near_one(self):
        cfg = EvolutionConfig(omega=1.0, T=1.0, n=10**6)
        p_exact = self.run(cfg, PowerLawOverlap(alpha=1.0, beta=0.5))[-1]
        assert abs(p_exact - 1.0) < 1e-2
