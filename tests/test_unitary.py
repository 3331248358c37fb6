import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zenokit import (
    EvolutionConfig,
    FreeEvolutionUnitary,
    ValidationError,
    make_general_unitary,
    make_rabi_unitary,
)


def matrix(u):
    """The step matrix, from its entries row by row."""
    return np.array(u.coefficients).reshape(2, 2)


def test_rabi_zero_time_is_identity():
    u = make_rabi_unitary(1.0, 0.0)
    assert np.allclose(matrix(u), np.eye(2), atol=1e-15)


def test_rabi_amplitudes_at_small_angle():
    u = make_rabi_unitary(1.0, 0.1)
    assert abs(u.a) ** 2 == pytest.approx(math.cos(0.1) ** 2, abs=1e-12)
    assert abs(u.b) ** 2 == pytest.approx(math.sin(0.1) ** 2, abs=1e-12)
    assert abs(u.a) ** 2 == pytest.approx(0.990033, abs=1e-6)


def test_rabi_off_diagonal_matches_variance_to_fourth_order():
    # |b|^2 = sin^2(0.1) vs V*delta^2 = 4 * 0.0025 = 0.01
    u = make_rabi_unitary(2.0, 0.05)
    assert abs(u.b) ** 2 == pytest.approx(math.sin(0.1) ** 2, abs=1e-15)
    assert abs(abs(u.b) ** 2 - 0.01) < 0.1**4


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
def test_off_diagonal_weight_converges_to_variance(delta):
    omega = 1.7
    u = make_rabi_unitary(omega, delta)
    ratio = abs(u.b) ** 2 / delta**2
    assert abs(ratio - omega**2) < 2 * omega**4 * delta**2


def test_general_unitary_identity():
    u = make_general_unitary(1.0, 0.0, 0.0)
    assert np.allclose(matrix(u), np.eye(2), atol=1e-15)


def test_general_unitary_matches_rabi():
    theta = 0.37
    u1 = make_general_unitary(math.cos(theta), -1j * math.sin(theta), 0.0)
    u2 = make_rabi_unitary(1.0, theta)
    assert np.allclose(matrix(u1), matrix(u2), atol=1e-15)


def test_general_unitary_is_unitary():
    u = make_general_unitary(0.6, 0.8j, math.pi / 3)
    m = matrix(u)
    assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


def test_general_unitary_rejects_bad_norm():
    with pytest.raises(ValidationError, match="deviates"):
        make_general_unitary(0.9, 0.9, 0.0)


@pytest.mark.parametrize("a", [math.nan, complex(1.0, math.nan), math.inf])
def test_general_unitary_rejects_non_finite(a):
    with pytest.raises(ValidationError, match="deviates"):
        make_general_unitary(a, 0.0, 0.0)


@pytest.mark.parametrize("build", [
    lambda: FreeEvolutionUnitary(a=1e200, b=0j),
    lambda: make_general_unitary(1e200, 0, 0),
], ids=["FreeEvolutionUnitary", "make_general_unitary"])
def test_norm_past_the_float_range_is_refused(build):
    # |a|^2 overflows; it reads as inf rather than raising OverflowError
    with pytest.raises(ValidationError, match="deviates"):
        build()


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [make_general_unitary, FreeEvolutionUnitary])
def test_non_finite_phi_is_refused(build, phi):
    # a nan phi gave nan coefficients, so propagate_projected yielded nan survival
    with pytest.raises(ValidationError) as info:
        build(1.0, 0.0, phi)
    assert str(info.value) == f"phi must be finite, got {phi!r}"


def test_rabi_cross_term_is_real_nonpositive():
    # conj(a)^2 * b * c_neq_1 = -cos^2 * sin^2 exactly for this realization
    for theta in (0.0, 0.1, 0.5, 1.3):
        u = make_rabi_unitary(1.0, theta)
        cross = u.a.conjugate() ** 2 * u.b * u.coefficients[2]
        assert cross.imag == 0.0
        assert cross.real <= 0.0
        assert cross.real == pytest.approx(
            -(math.cos(theta) ** 2) * math.sin(theta) ** 2, abs=1e-15
        )


@given(
    x=st.tuples(*[st.floats(-1, 1) for _ in range(4)]).filter(
        lambda t: 1e-3 < math.hypot(*t)
    ),
    phi=st.floats(0, 2 * math.pi),
)
def test_random_general_unitaries_are_unitary(x, phi):
    norm = math.sqrt(sum(v * v for v in x))
    a = complex(x[0], x[1]) / norm
    b = complex(x[2], x[3]) / norm
    m = matrix(make_general_unitary(a, b, phi))
    assert np.abs(m.conj().T @ m - np.eye(2)).max() < 1e-12


class TestEvolutionConfig:
    def test_derived_quantities(self):
        cfg = EvolutionConfig(omega=2.0, T=1.0, n=10)
        assert cfg.V == 4.0
        assert cfg.delta == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(omega=1.0, T=1.0, n=0),
            dict(omega=1.0, T=0.0, n=5),
            dict(omega=-1.0, T=1.0, n=5),
            dict(omega=math.nan, T=1.0, n=5),
            dict(omega=math.inf, T=1.0, n=5),
            dict(omega=1.0, T=math.inf, n=5),
            dict(omega=1.0, T=math.nan, n=5),
            dict(omega=1e200, T=1.0, n=2),
            dict(omega=1.0, T=1e200, n=1),
            dict(omega=1e150, T=1e10, n=1),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            EvolutionConfig(**kwargs)

    @pytest.mark.parametrize("n", [2.5, 3.0])
    def test_rejects_a_float_step_count(self, n):
        with pytest.raises(ValidationError, match="n must be an integer"):
            EvolutionConfig(omega=1.0, T=1.0, n=n)

    def test_numpy_step_count_is_read_as_an_int(self):
        cfg = EvolutionConfig(omega=1.0, T=1.0, n=np.int64(3))
        assert type(cfg.n) is int
        assert cfg == EvolutionConfig(omega=1.0, T=1.0, n=3)

    def test_coarse_steps_build_silently(self):
        # the step-size warning belongs to the second-order formula alone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = EvolutionConfig(omega=10.0, T=1.0, n=2)
        assert cfg.V * cfg.delta**2 == 25.0

    @given(st.floats(0.0, 1e3), st.floats(1e-3, 1e3), st.integers(1, 10**6))
    def test_vd2_is_the_step_weight(self, omega, t_total, n):
        cfg = EvolutionConfig(omega=omega, T=t_total, n=n)
        assert cfg.vd2 == cfg.V * cfg.delta**2


@given(st.complex_numbers(max_magnitude=1.0, allow_nan=False), st.floats(-4.0, 4.0))
def test_coefficients_are_the_matrix_rows(z, phi):
    u = make_general_unitary(z, math.sqrt(max(0.0, 1.0 - abs(z) ** 2)), phi)
    phase = cmath.exp(1j * u.phi)
    c = u.coefficients
    assert c == (u.a, u.b, -phase * u.b.conjugate(), phase * u.a.conjugate())
