import json
import math
import re

import pytest
from hypothesis import given, strategies as st

from zenokit import (
    ConstantOverlap,
    ExplicitOverlaps,
    ExponentialOverlap,
    PowerLawOverlap,
    ValidationError,
    family_eta,
    realize,
    schedule_from_dict,
    schedule_to_dict,
)


def test_constant_realizes_shared_eta():
    assert tuple(realize(ConstantOverlap(eta=0.5), 4)) == (0.5,) * 4


def test_constant_rejects_modulus_above_one():
    with pytest.raises(ValidationError):
        ConstantOverlap(eta=1.0 + 1e-6)


@pytest.mark.parametrize("given,stored", [
    (0.25, 0.25), (1, 1.0), (0.5 + 0j, 0.5), (-0.0, 0.0),
    # the rounding slack of the modulus check
    (1 + 1e-12, 1.0), (1 + 5e-13, 1.0),
])
def test_constant_stores_the_one_eta_every_layer_reads(given, stored):
    schedule = ConstantOverlap(eta=given)
    assert type(schedule.eta) is float
    assert math.copysign(1.0, schedule.eta) == 1.0
    assert schedule.eta == stored
    assert family_eta(schedule, 7) == stored
    assert tuple(realize(schedule, 3)) == (complex(stored),) * 3


def test_power_law_eta_value():
    assert family_eta(PowerLawOverlap(alpha=1.0, beta=2.0), 10) == pytest.approx(0.99)


def test_power_law_eta_when_n_to_the_beta_overflows():
    # 2**1024.5 is past the floats; alpha / 2**1024.5 is not
    assert family_eta(PowerLawOverlap(alpha=1.0, beta=200.0), 64) == 1.0
    want = 1.0 - 1e308 / 2.0**1000 / 2.0**24.5
    got = family_eta(PowerLawOverlap(alpha=1e308, beta=1024.5), 2)
    assert got == pytest.approx(want, rel=1e-12)


def test_power_law_rejects_negative_overlap_at_small_n():
    with pytest.raises(ValidationError, match="negative"):
        family_eta(PowerLawOverlap(alpha=2.0, beta=1.0), 1)


@pytest.mark.parametrize("schedule,message", [
    (ExponentialOverlap(alpha=2.0, beta=0.1), "exponential overlap is negative at n=1 "
                                              "(alpha=2.0, beta=0.1)"),
    (ExplicitOverlaps(overlaps=()), "explicit schedule is empty"),
])
def test_family_eta_refuses_a_schedule_with_no_eta_at_n(schedule, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        family_eta(schedule, 1)


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


@pytest.mark.parametrize("cls,name", [(PowerLawOverlap, "power-law"),
                                      (ExponentialOverlap, "exponential")])
def test_family_message_names_its_type(cls, name):
    with pytest.raises(ValidationError) as info:
        cls(alpha=-1.0, beta=math.inf)
    assert str(info.value) == (
        f"{name} schedule needs finite alpha > 0 and beta > 0, got alpha=-1.0, beta=inf")


def test_families_are_distinct_values():
    power_law, exponential = PowerLawOverlap(1.0, 2.0), ExponentialOverlap(1.0, 2.0)
    assert power_law != exponential
    assert power_law == PowerLawOverlap(alpha=1.0, beta=2.0)
    assert repr(exponential) == "ExponentialOverlap(alpha=1.0, beta=2.0)"
    assert len({power_law, PowerLawOverlap(1.0, 2.0), exponential}) == 2
    with pytest.raises(AttributeError):
        power_law.alpha = 3.0


@pytest.mark.parametrize("bad", [math.nan, complex(0.5, math.nan), complex(math.inf, 0)])
def test_overlaps_reject_non_finite_values(bad):
    with pytest.raises(ValidationError, match="finite"):
        ConstantOverlap(eta=bad)
    with pytest.raises(ValidationError, match="finite"):
        ExplicitOverlaps(overlaps=(0.5, bad))


def test_explicit_length_must_match_run():
    sched = ExplicitOverlaps(overlaps=(0.9, 0.8, 0.7))
    assert tuple(realize(sched, 3)) == (0.9, 0.8, 0.7)
    with pytest.raises(ValidationError, match="steps"):
        realize(sched, 4)


def test_explicit_rejects_large_modulus():
    with pytest.raises(ValidationError, match="modulus"):
        ExplicitOverlaps(overlaps=(0.5, 1.2))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: ExplicitOverlaps(overlaps=(0.5, math.nan)), "overlap 1 must be finite"),
        (lambda: ConstantOverlap(eta=1.5), "eta has modulus 1.5 > 1"),
        *((lambda bad=bad: ConstantOverlap(eta=bad),
           f"eta must be a real overlap in [0, 1], got {bad}")
          for bad in (-1.0, -5e-324, 0.5 + 0.1j, 1j, complex(1.0, 1e-300))),
    ],
)
def test_overlap_refusal_wording(build, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        build()


def test_explicit_family_eta_is_mean_modulus():
    sched = ExplicitOverlaps(overlaps=(1.0, 0.0, 0.5j))
    assert family_eta(sched, 3) == pytest.approx(0.5)


def test_explicit_family_eta_is_correctly_rounded():
    # The built-in sum() of these moduli gives 1.0 on Python 3.10 and 3.11
    # and 1.000000000000001 from 3.12 on; math.fsum gives the latter on all.
    sched = ExplicitOverlaps(overlaps=(1.0,) + (1e-16,) * 10)
    assert family_eta(sched, 11) == 1.000000000000001 / 11


def test_explicit_family_eta_of_normalised_overlaps_is_one():
    # z/abs(z) may round to a modulus of 1 + 2.2e-16, within the slack
    unit = (z / abs(z) for z in (complex(k, 1.0) for k in range(1, 200)))
    overlaps = tuple(u for u in unit if abs(u) > 1.0)[:4]
    assert len(overlaps) == 4
    assert family_eta(ExplicitOverlaps(overlaps=overlaps), 4) == 1.0


_positive = st.floats(min_value=1e-300, max_value=1e300)
_unit = st.floats(min_value=-1.0, max_value=1.0)
_overlap = st.one_of(
    _unit,
    st.tuples(_unit, _unit).filter(lambda t: math.hypot(*t) <= 1.0).map(lambda t: complex(*t)),
)
SCHEDULES = st.one_of(
    st.floats(min_value=0.0, max_value=1.0).map(lambda eta: ConstantOverlap(eta=eta)),
    st.builds(PowerLawOverlap, alpha=_positive, beta=_positive),
    st.builds(ExponentialOverlap, alpha=_positive, beta=_positive),
    st.lists(_overlap, max_size=8).map(lambda o: ExplicitOverlaps(overlaps=tuple(o))),
)


@given(SCHEDULES)
def test_schedule_dict_round_trips(schedule):
    data = schedule_to_dict(schedule)
    assert schedule_from_dict(data) == schedule
    # and through JSON text, as the CLI prints and reads it
    assert schedule_from_dict(json.loads(json.dumps(data))) == schedule


def test_schedule_to_dict_forms():
    assert schedule_to_dict(ConstantOverlap(eta=0.5)) == {"type": "constant", "eta": 0.5}
    assert schedule_to_dict(PowerLawOverlap(alpha=1.0, beta=2.0)) == {
        "type": "power-law", "alpha": 1.0, "beta": 2.0}
    assert schedule_to_dict(ExponentialOverlap(alpha=0.5, beta=0.25)) == {
        "type": "exponential", "alpha": 0.5, "beta": 0.25}
    assert schedule_to_dict(ExplicitOverlaps(overlaps=(0.9 + 0.1j, 0.95))) == {
        "type": "explicit", "overlaps": [[0.9, 0.1], 0.95]}


@pytest.mark.parametrize(
    "overlaps",
    [
        [[0.9, 0.1], 0.95],
        ["0.9+0.1j", "0.95"],
        ["(0.9+0.1j)", 0.95],
        "0.9+0.1j, 0.95",
    ],
)
def test_schedule_from_dict_reads_every_overlap_form(overlaps):
    schedule = schedule_from_dict({"type": "explicit", "overlaps": overlaps})
    assert schedule == ExplicitOverlaps(overlaps=(0.9 + 0.1j, 0.95))


def test_schedule_from_dict_reads_numeric_strings():
    assert schedule_from_dict({"type": "power-law", "alpha": "1.5", "beta": 2}) == (
        PowerLawOverlap(alpha=1.5, beta=2.0))
    for eta in ("0.5", "0.5+0j", [0.5, 0]):
        assert schedule_from_dict({"type": "constant", "eta": eta}) == ConstantOverlap(eta=0.5)


@pytest.mark.parametrize(
    "data,message",
    [
        ([1, 2], "a schedule must be a JSON object"),
        ({"eta": 0.5}, "unknown schedule type None"),
        ({"type": "linear"}, "unknown schedule type 'linear'"),
        ({"type": "constant"}, "constant schedule needs eta"),
        ({"type": "constant", "eta": True}, "eta must be a number"),
        ({"type": "exponential", "alpha": 1.0}, "exponential schedule needs beta"),
        ({"type": "power-law", "alpha": [1], "beta": 1}, "alpha must be a number"),
        ({"type": "power-law", "alpha": "x", "beta": 1}, "alpha must be a number"),
        ({"type": "explicit", "overlaps": 0.9}, "overlaps must be a list"),
        ({"type": "explicit", "overlaps": [0.9, "0.8+j0"]}, "overlaps[1] must be a number"),
        ({"type": "explicit", "overlaps": [[0.9, "a"]]}, "overlaps[0][1] must be a number"),
        ({"type": "explicit", "overlaps": [[0.9, 0.1, 0.0]]}, "overlaps[0] must be"),
        ({"type": "explicit", "overlaps": [1.5]}, "overlap 0 has modulus"),
        ({"type": "constant", "eta": 0.5, "alpha": 3}, "the constant schedule does not read alpha"),
        ({"type": "power-law", "alpha": 1, "beta": 2, "eta": 0.3},
         "the power-law schedule does not read eta"),
        ({"type": "exponential", "alpha": 1, "beta": 2, "overlaps": [0.9]},
         "the exponential schedule does not read overlaps"),
        ({"type": "explicit", "overlaps": [0.9], "beta": 2},
         "the explicit schedule does not read beta"),
        # refused before a missing field is looked for
        ({"type": "power-law", "note": "x"}, "the power-law schedule does not read note"),
        ({"type": "constant", "eta": [0.5, 0.1]},
         "eta must be a real overlap in [0, 1], got (0.5+0.1j)"),
        ({"type": "constant", "eta": "-0.5"}, "eta must be a real overlap in [0, 1], got -0.5"),
    ],
)
def test_schedule_from_dict_names_the_bad_field(data, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        schedule_from_dict(data)
