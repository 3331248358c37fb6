import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zenokit import (
    BrownianModelParams,
    FreeParticleParams,
    PointerModelParams,
    Regime,
    ValidationError,
    brownian_schedule,
    classify_schedule,
    family_eta,
    free_particle_variance,
    gaussian_model_schedule,
    gaussian_pointer_overlap,
    quadratic_validity_time,
)

positive = st.floats(1e-30, 1e3)


class TestFreeParticle:
    def test_variance_value(self):
        p = FreeParticleParams(m=1e-26, sigma=1e-10, hbar=1.0545718e-34)
        assert free_particle_variance(p) == pytest.approx(1.546e-45, rel=1e-3)

    def test_variance_scaling_in_width(self):
        p1 = FreeParticleParams(m=1.0, sigma=1.0, hbar=1.0)
        p2 = FreeParticleParams(m=1.0, sigma=2.0, hbar=1.0)
        assert free_particle_variance(p1) / free_particle_variance(p2) == 16.0

    def test_heavy_mass_limit(self):
        p = FreeParticleParams(m=1e30, sigma=1.0, hbar=1.0)
        assert free_particle_variance(p) < 1e-59

    def test_validity_time_value(self):
        p = FreeParticleParams(m=1e-26, sigma=1e-10, hbar=1.0545718e-34)
        assert quadratic_validity_time(p) == pytest.approx(2.68e-12, rel=1e-2)

    def test_validity_time_linear_in_mass(self):
        p1 = FreeParticleParams(m=1.0, sigma=1.0, hbar=1.0)
        p2 = FreeParticleParams(m=2.0, sigma=1.0, hbar=1.0)
        assert quadratic_validity_time(p2) == pytest.approx(
            2 * quadratic_validity_time(p1), rel=1e-14
        )

    @given(m=positive, sigma=positive, hbar=positive)
    def test_two_formulas_agree(self, m, sigma, hbar):
        p = FreeParticleParams(m=m, sigma=sigma, hbar=hbar)
        t_c = quadratic_validity_time(p)
        assert abs(t_c - hbar / math.sqrt(free_particle_variance(p))) <= 1e-12 * t_c

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            FreeParticleParams(m=0.0, sigma=1.0)

    @pytest.mark.parametrize("field", ["m", "sigma", "hbar"])
    def test_rejects_non_finite(self, field):
        kwargs = {**dict(m=1.0, sigma=1.0, hbar=1.0), field: math.inf}
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            FreeParticleParams(**kwargs)

    def test_validity_time_mismatch_raises(self):
        # the variance underflows to a subnormal, so hbar/sqrt(Var) loses
        # digits; an assert would vanish under python -O
        p = FreeParticleParams(m=1.0, sigma=1e10, hbar=1e-70)
        with pytest.raises(ValidationError, match="disagrees"):
            quadratic_validity_time(p)


class TestGaussianPointer:
    def test_zero_displacement_means_full_overlap(self):
        assert gaussian_pointer_overlap(v=3.0, delta=0.0, sigma=1.0) == 1.0

    def test_direct_value(self):
        assert gaussian_pointer_overlap(1.0, 0.1, 1.0) == pytest.approx(
            math.exp(-0.01), abs=1e-15
        )

    def test_small_delta_is_quadratic(self):
        v, sigma, delta = 1.0, 1.0, 0.05
        loss = 1.0 - gaussian_pointer_overlap(v, delta, sigma)
        assert loss == pytest.approx((v / sigma) ** 2 * delta**2, rel=0.01)

    def test_monotone_in_each_argument(self):
        grid = np.linspace(0.1, 2.0, 8)
        vals_delta = [gaussian_pointer_overlap(1.0, d, 1.0) for d in grid]
        vals_v = [gaussian_pointer_overlap(v, 0.5, 1.0) for v in grid]
        vals_sigma = [gaussian_pointer_overlap(1.0, 0.5, s) for s in grid]
        assert all(a > b for a, b in zip(vals_delta, vals_delta[1:]))
        assert all(a > b for a, b in zip(vals_v, vals_v[1:]))
        assert all(a < b for a, b in zip(vals_sigma, vals_sigma[1:]))
        assert all(0 < x <= 1 for x in vals_delta + vals_v + vals_sigma)

    def test_displacement_past_the_float_range_gives_zero(self):
        assert gaussian_pointer_overlap(1e200, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("v, sigma", [(1e200, 1e200), (3e200, 1e200), (1e200, 1e160),
                                          (1e-200, 1e-200), (1e-100, 1e-200),
                                          (1.5e-160, 1e-160)])  # subnormal squares
    def test_width_past_the_float_range_still_gives_an_overlap(self, v, sigma):
        value = gaussian_pointer_overlap(v, 1.0, sigma)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(math.exp(-((v / sigma) ** 2)))

    @pytest.mark.parametrize("delta", [-1.0, math.nan])
    def test_rejects_a_negative_or_nan_delta(self, delta):
        with pytest.raises(ValidationError, match="delta must be >= 0"):
            gaussian_pointer_overlap(1.0, delta, 1.0)

    def test_schedule_parameters(self):
        sched = gaussian_model_schedule(
            PointerModelParams(v=1.0, sigma=1.0, c_ratio=1.0, T=1.0)
        )
        assert sched.alpha == 1.0
        assert sched.beta == 2.0

    @pytest.mark.parametrize("v", [1e-3, 1.0, 10.0, 1e4])
    def test_always_classifies_as_free_evolution(self, v):
        sched = gaussian_model_schedule(
            PointerModelParams(v=v, sigma=0.7, c_ratio=1.3, T=2.0)
        )
        assert classify_schedule(sched).label is Regime.FREE_EVOLUTION


class TestPointerModelParams:
    # gaussian_model_schedule is the small-step expansion of
    # gaussian_pointer_overlap: 1 - eta_n = x = alpha/n^2 against
    # 1 - exp(-x), which lies within x/2 of it, relatively.
    @pytest.mark.parametrize("v,sigma,c_ratio,T", [
        (1.0, 1.0, 1.0, 1.0), (0.3, 0.7, 1.3, 2.0), (5.0, 2.0, 0.5, 0.8), (1e-3, 1e-3, 2.0, 1.0),
    ])
    @pytest.mark.parametrize("n", [3, 10, 100, 1000])
    def test_schedule_is_the_small_step_expansion_of_the_overlap(self, v, sigma, c_ratio, T, n):
        p = PointerModelParams(v=v, sigma=sigma, c_ratio=c_ratio, T=T)
        sched = gaussian_model_schedule(p)
        expanded = 1.0 - family_eta(sched, n)
        exact = 1.0 - gaussian_pointer_overlap(p.v, p.c_ratio * p.T / n, p.sigma)
        assert abs(expanded - exact) <= sched.alpha / n**2 * expanded

    @pytest.mark.parametrize("field", ["v", "sigma", "c_ratio", "T"])
    def test_rejects_non_finite(self, field):
        kwargs = {**dict(v=1.0, sigma=1.0, c_ratio=1.0, T=1.0), field: math.inf}
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            PointerModelParams(**kwargs)


class TestBrownian:
    @pytest.mark.parametrize("kwargs,field", [
        (dict(D=math.inf, T=1.0), "D"),
        (dict(D=math.nan, T=1.0), "D"),
        (dict(D=1.0, T=math.inf), "T"),
    ])
    def test_rejects_non_finite(self, kwargs, field):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            BrownianModelParams(**kwargs)

    def test_schedule_parameters(self):
        sched = brownian_schedule(BrownianModelParams(D=2.0, T=1.0))
        assert sched.alpha == 2.0
        assert sched.beta == 1.0
        c = classify_schedule(sched)
        assert c.label is Regime.INTERMEDIATE
        assert c.limit_coefficient == pytest.approx(0.5677, abs=1e-4)

    def test_strong_diffusion_approaches_zeno(self):
        sched = brownian_schedule(BrownianModelParams(D=100.0, T=1.0))
        assert classify_schedule(sched).limit_coefficient < 1e-3

    def test_weak_diffusion_approaches_free_evolution(self):
        sched = brownian_schedule(BrownianModelParams(D=1e-4, T=1.0))
        assert classify_schedule(sched).limit_coefficient == pytest.approx(1.0, abs=1e-7)

    def test_limit_monotone_in_diffusion(self):
        # stronger diffusion -> smaller decay coefficient k -> limiting
        # survival closer to 1 (the Zeno end)
        ds = (0.5, 1.0, 2.0, 4.0, 8.0)
        ks = [
            classify_schedule(brownian_schedule(BrownianModelParams(D=d, T=1.0)))
            .limit_coefficient
            for d in ds
        ]
        limits = [
            classify_schedule(brownian_schedule(BrownianModelParams(D=d, T=1.0)))
            .limit_p(V=1.0, T=0.5)
            for d in ds
        ]
        assert all(a > b for a, b in zip(ks, ks[1:]))
        assert all(a < b for a, b in zip(limits, limits[1:]))

    def test_zero_diffusion_has_no_schedule(self):
        with pytest.raises(ValidationError):
            brownian_schedule(BrownianModelParams(D=0.0, T=1.0))
