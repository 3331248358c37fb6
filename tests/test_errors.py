"""The package's one reading of a step count and its one square that
cannot raise, both in zenokit.errors, and the entry points that use them."""

import math
import random
import sys

import pytest

from zenokit import analysis, evolution, schedules
from zenokit.errors import CapacityError, ValidationError, square
from zenokit.schedules import ConstantOverlap, PowerLawOverlap
from zenokit.unitary import EvolutionConfig, make_rabi_unitary

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


@pytest.mark.parametrize("n", [2.5, 3.0, 0, -1, sys.maxsize + 1])
@pytest.mark.parametrize("entry", STEP_COUNT_ENTRY_POINTS)
def test_every_entry_point_refuses_a_bad_step_count_alike(entry, n):
    call, name, least = STEP_COUNT_ENTRY_POINTS[entry]
    if isinstance(n, float):
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
