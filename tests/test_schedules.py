import math

import pytest

from zenokit import (
    ConstantOverlap,
    ExplicitOverlaps,
    ExponentialOverlap,
    PowerLawOverlap,
    ValidationError,
    family_eta,
    realize,
)


def test_constant_realizes_shared_eta():
    assert realize(ConstantOverlap(eta=0.5), 4) == (0.5,) * 4


def test_constant_rejects_modulus_above_one():
    with pytest.raises(ValidationError):
        ConstantOverlap(eta=1.0 + 1e-6)


def test_power_law_eta_value():
    assert family_eta(PowerLawOverlap(alpha=1.0, beta=2.0), 10) == pytest.approx(0.99)


def test_power_law_rejects_negative_overlap_at_small_n():
    with pytest.raises(ValidationError, match="negative"):
        family_eta(PowerLawOverlap(alpha=2.0, beta=1.0), 1)


def test_exponential_eta_value():
    eta = family_eta(ExponentialOverlap(alpha=1.0, beta=0.1), 10)
    assert eta == pytest.approx(1.0 - math.exp(-1.0))


@pytest.mark.parametrize("cls", [PowerLawOverlap, ExponentialOverlap])
def test_families_reject_nonpositive_parameters(cls):
    with pytest.raises(ValidationError):
        cls(alpha=0.0, beta=1.0)
    with pytest.raises(ValidationError):
        cls(alpha=1.0, beta=-1.0)


@pytest.mark.parametrize("cls", [PowerLawOverlap, ExponentialOverlap])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_families_reject_non_finite_parameters(cls, bad):
    with pytest.raises(ValidationError, match="finite"):
        cls(alpha=bad, beta=1.0)
    with pytest.raises(ValidationError, match="finite"):
        cls(alpha=1.0, beta=bad)


@pytest.mark.parametrize("bad", [math.nan, complex(0.5, math.nan), complex(math.inf, 0)])
def test_overlaps_reject_non_finite_values(bad):
    with pytest.raises(ValidationError, match="finite"):
        ConstantOverlap(eta=bad)
    with pytest.raises(ValidationError, match="finite"):
        ExplicitOverlaps(overlaps=(0.5, bad))


def test_explicit_length_must_match_run():
    sched = ExplicitOverlaps(overlaps=(0.9, 0.8, 0.7))
    assert realize(sched, 3) == (0.9, 0.8, 0.7)
    with pytest.raises(ValidationError, match="steps"):
        realize(sched, 4)


def test_explicit_rejects_large_modulus():
    with pytest.raises(ValidationError, match="modulus"):
        ExplicitOverlaps(overlaps=(0.5, 1.2))


def test_explicit_family_eta_is_mean_modulus():
    sched = ExplicitOverlaps(overlaps=(1.0, 0.0, 0.5j))
    assert family_eta(sched, 3) == pytest.approx(0.5)
