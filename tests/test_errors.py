"""The package's one reading of a step count, its one reading of a real
parameter and its one square that cannot raise, all in zenokit.errors, and
the entry points that use them."""

import math
import pathlib
import random
import sys

import numpy as np
import pytest

from zenokit import analysis, errors, evolution, physical, schedules
from zenokit.errors import CapacityError, ValidationError, as_real, square
from zenokit.schedules import ConstantOverlap, ExponentialOverlap, PowerLawOverlap
from zenokit.unitary import EvolutionConfig, FreeEvolutionUnitary, make_rabi_unitary

_U = make_rabi_unitary(1.0, 0.1)
_HALF = ConstantOverlap(0.5)

# Every library entry point that takes a step count: (call of a count, the
# count's name in the messages, the least count it takes).
STEP_COUNT_ENTRY_POINTS = {
    "EvolutionConfig": (lambda n: EvolutionConfig(omega=1.0, T=1.0, n=n), "n", 1),
    "propagate_projected": (lambda n: evolution.propagate_projected(_U, _HALF, n), "n", 1),
    "enumerate_branches": (lambda n: evolution.enumerate_branches(_U, _HALF, n), "n", 1),
    "realize": (lambda n: schedules.realize(_HALF, n), "n", 1),
    "family_eta": (lambda n: schedules.family_eta(PowerLawOverlap(1, 2), n), "n", 1),
    "zeno_sum": (lambda n: analysis.zeno_sum(0.5, n), "n", 1),
    "criterion_value": (lambda n: analysis.criterion_value(0.5, n), "n", 1),
    "numeric_limit_probe": (lambda n: analysis.numeric_limit_probe(_HALF, n), "n_max", 64),
}


@pytest.mark.parametrize("n", [2.5, 3.0, True, 0, -1, sys.maxsize + 1])
@pytest.mark.parametrize("entry", STEP_COUNT_ENTRY_POINTS)
def test_every_entry_point_refuses_a_bad_step_count_alike(entry, n):
    call, name, least = STEP_COUNT_ENTRY_POINTS[entry]
    if isinstance(n, (float, bool)):
        error, text = ValidationError, f"{name} must be an integer, got {n!r}"
    elif n < least:
        error, text = ValidationError, f"{name} must be >= {least}, got {n}"
    else:
        error = CapacityError
        text = f"{name} = {n} is above the cap of sys.maxsize = {sys.maxsize}"
    with pytest.raises(error) as info:
        call(n)
    assert str(info.value) == text


@pytest.mark.parametrize("entry", STEP_COUNT_ENTRY_POINTS)
def test_every_entry_point_takes_its_least_step_count(entry):
    call, _, least = STEP_COUNT_ENTRY_POINTS[entry]
    call(least)


def _pointer(**given):
    return physical.PointerModelParams(**{"v": 1.0, "sigma": 1.0, "c_ratio": 1.0, "T": 1.0,
                                          **given})


# Every library entry point that takes a real parameter, one entry per
# parameter: (call of a value, whether the value must be > 0 rather than >= 0).
REAL_ENTRY_POINTS = {
    "EvolutionConfig T": (lambda x: EvolutionConfig(omega=1.0, T=x, n=1), True),
    "EvolutionConfig omega": (lambda x: EvolutionConfig(omega=x, T=1.0, n=1), False),
    "make_rabi_unitary omega": (lambda x: make_rabi_unitary(x, 0.1), False),
    "make_rabi_unitary delta": (lambda x: make_rabi_unitary(1.0, x), False),
    "intermediate_coefficient alpha": (analysis.intermediate_coefficient, True),
    "regime_report V": (lambda x: analysis.regime_report(_HALF, x, 1.0, 64), False),
    "regime_report T": (lambda x: analysis.regime_report(_HALF, 1.0, x, 64), True),
    "FreeParticleParams m": (lambda x: physical.FreeParticleParams(m=x, sigma=1.0), True),
    "FreeParticleParams sigma": (lambda x: physical.FreeParticleParams(m=1.0, sigma=x), True),
    "FreeParticleParams hbar":
        (lambda x: physical.FreeParticleParams(m=1.0, sigma=1.0, hbar=x), True),
    "PointerModelParams v": (lambda x: _pointer(v=x), True),
    "PointerModelParams sigma": (lambda x: _pointer(sigma=x), True),
    "PointerModelParams c_ratio": (lambda x: _pointer(c_ratio=x), True),
    "PointerModelParams T": (lambda x: _pointer(T=x), True),
    "BrownianModelParams D": (lambda x: physical.BrownianModelParams(D=x, T=1.0), False),
    "BrownianModelParams T": (lambda x: physical.BrownianModelParams(D=1.0, T=x), True),
    "gaussian_pointer_overlap v": (lambda x: physical.gaussian_pointer_overlap(x, 0.1, 1.0), True),
    "gaussian_pointer_overlap sigma":
        (lambda x: physical.gaussian_pointer_overlap(1.0, 0.1, x), True),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "below", "1", None, 1j, True])
@pytest.mark.parametrize("entry", REAL_ENTRY_POINTS)
def test_every_entry_point_refuses_a_bad_real_alike(entry, value):
    call, strict = REAL_ENTRY_POINTS[entry]
    name = entry.split()[1]
    if value == "below":
        value = 0.0 if strict else -1e-300
    if isinstance(value, float):
        text = f"{name} must be finite and {'>' if strict else '>='} 0, got {value}"
    else:
        text = f"{name} must be a real number, got {value!r}"
    with pytest.raises(ValidationError) as info:
        call(value)
    assert str(info.value) == text


@pytest.mark.parametrize("entry", REAL_ENTRY_POINTS)
def test_every_entry_point_takes_its_least_real(entry):
    call, strict = REAL_ENTRY_POINTS[entry]
    call(5e-324 if strict else 0.0)


def test_make_rabi_unitary_refuses_an_angle_past_the_float_range():
    with pytest.raises(ValidationError) as info:
        make_rabi_unitary(1e200, 1e200)
    assert str(info.value) == ("omega = 1e+200 and delta = 1e+200 put the angle omega*delta "
                               "beyond the float range")


_RUN = EvolutionConfig(omega=1.0, T=0.1, n=3)

# Every library entry point that reads a real parameter's type by
# errors.real_number but keeps its own range rule: a call of a value.
REAL_TYPE_ENTRY_POINTS = {
    "gaussian_pointer_overlap delta": lambda x: physical.gaussian_pointer_overlap(1.0, x, 1.0),
    "FreeEvolutionUnitary phi": lambda x: FreeEvolutionUnitary(1, 0j, phi=x),
    "PowerLawOverlap alpha": lambda x: PowerLawOverlap(x, 1),
    "PowerLawOverlap beta": lambda x: PowerLawOverlap(1, x),
    "ExponentialOverlap alpha": lambda x: ExponentialOverlap(x, 1),
    "ExponentialOverlap beta": lambda x: ExponentialOverlap(1, x),
    "zeno_sum eta": lambda x: analysis.zeno_sum(x, 3),
    "criterion_value eta": lambda x: analysis.criterion_value(x, 3),
    "second_order_partial eta": lambda x: analysis.second_order_partial(x, _RUN),
    "second_order_series eta": lambda x: analysis.second_order_series(x, _RUN),
}


@pytest.mark.parametrize("value", ["1", None, 1j, 0.5 + 0j, True])
@pytest.mark.parametrize("entry", REAL_TYPE_ENTRY_POINTS)
def test_every_entry_point_refuses_a_value_that_is_not_real_alike(entry, value):
    name = entry.split()[1]
    with pytest.raises(ValidationError) as info:
        REAL_TYPE_ENTRY_POINTS[entry](value)
    assert str(info.value) == f"{name} must be a real number, got {value!r}"


@pytest.mark.parametrize("value", [1, 0.5, np.float64(0.5)])
@pytest.mark.parametrize("entry", REAL_TYPE_ENTRY_POINTS)
def test_every_entry_point_takes_a_real_of_any_type(entry, value):
    REAL_TYPE_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("value", [0, 2, 0.5, np.float64(0.25), np.float32(1.5), np.int64(3)])
def test_as_real_returns_a_real_unchanged(value):
    assert as_real("x", value) is value


def test_no_module_but_errors_words_the_real_rule():
    package = pathlib.Path(errors.__file__).parent
    for path in package.glob("*.py"):
        if path.name != "errors.py":
            text = path.read_text(encoding="utf-8")
            assert "must be finite and" not in text, path.name
            assert "must be a real number" not in text, path.name


def test_square_is_the_float_power_bit_for_bit():
    rng = random.Random(25)
    xs = [rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-150, 150) for _ in range(10_000)]
    for x in [*xs, 0.0, -0.0, 5e-324, 1.3e154, math.nan, math.inf, -math.inf]:
        assert repr(square(x)) == repr(x**2)


@pytest.mark.parametrize("x", [1.4e154, -1.4e154, 1e200, sys.float_info.max])
def test_square_past_the_float_range_is_inf(x):
    with pytest.raises(OverflowError):
        x**2
    assert square(x) == math.inf
