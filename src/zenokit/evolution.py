"""Exact survival probability of the alternating free/decoherence chain.

Two independent routes compute the same number:

* propagate_projected: linear-time recurrence on the projected amplitude
  pair (A_0, A_1), where each step applies the free unitary and then
  multiplies A_1 by that step's environment overlap.
* enumerate_branches: brute-force sum over all 2^n branch words, kept as
  an exactness oracle for the recurrence.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import analysis
from .errors import CapacityError, ValidationError
from .schedules import OverlapSchedule, family_eta, realize
from .unitary import EvolutionConfig, FreeEvolutionUnitary

ORACLE_MAX_STEPS = 20
_ORACLE_CHUNK = 1 << 15


@dataclass(frozen=True)
class SurvivalResult:
    """Exact and second-order survival for one run.

    series holds the exact survival probability after each of the n
    steps. p_second_order and criterion_value use the schedule's shared
    eta (mean overlap modulus for explicit schedules).
    """

    p_exact: float
    p_second_order: float
    criterion_value: float
    series: tuple[float, ...]


def propagate_projected(
    U: FreeEvolutionUnitary,
    schedule: OverlapSchedule,
    n: int,
    config: EvolutionConfig | None = None,
) -> SurvivalResult:
    """O(n) projected propagation of the chain.

    Keeps the amplitude pair (A_0, A_1) of the system conditioned on
    every environment so far having recorded 0; the overlap multiplies
    A_1 only, since <E_0|E_0> = 1. When config is given, the
    second-order comparison uses its exact V*delta^2; otherwise |b|^2 is
    used as the step's quadratic weight.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    overlaps = realize(schedule, n)
    # The coefficients are properties (two of them call cmath.exp); read
    # them once rather than on every step.
    c_eq_0, c_neq_0, c_neq_1, c_eq_1 = U.c_eq_0, U.c_neq_0, U.c_neq_1, U.c_eq_1
    a0, a1 = 1.0 + 0.0j, 0.0j
    series = []
    for ov in overlaps:
        a0, a1 = c_eq_0 * a0 + c_neq_0 * a1, (c_neq_1 * a0 + c_eq_1 * a1) * ov
        series.append(abs(a0) ** 2)
    p_exact = series[-1]

    eta = family_eta(schedule, n)
    if config is not None:
        p_so, criterion = analysis.second_order_with_criterion(eta, config)
    else:
        p_so = 1.0 - 2.0 * analysis.zeno_sum(eta, n) * abs(U.b) ** 2
        criterion = analysis.criterion_value(eta, n)
    return SurvivalResult(
        p_exact=p_exact,
        p_second_order=p_so,
        criterion_value=criterion,
        series=tuple(series),
    )


def _branch_amplitude(
    U: FreeEvolutionUnitary, overlaps: tuple[complex, ...], n: int
) -> complex:
    # coef[alpha, state]: alpha 0 means '=', 1 means '!='; state is b_i.
    coef = np.array(
        [[U.c_eq_0, U.c_eq_1], [U.c_neq_0, U.c_neq_1]], dtype=complex
    )
    ov = np.asarray(overlaps, dtype=complex)
    bits = np.arange(n)
    partial_re, partial_im = [], []
    for start in range(0, 1 << n, _ORACLE_CHUNK):
        stop = min(start + _ORACLE_CHUNK, 1 << n)
        words = (np.arange(start, stop)[:, None] >> bits) & 1
        b = np.cumsum(words, axis=1) & 1
        keep = b[:, -1] == 0
        amps = np.prod(coef[words[keep], b[keep]], axis=1)
        brackets = np.prod(np.where(b[keep] == 1, ov[None, :], 1.0), axis=1)
        total = np.sum(amps * brackets)
        partial_re.append(total.real)
        partial_im.append(total.imag)
    return complex(math.fsum(partial_re), math.fsum(partial_im))


def enumerate_branches(
    U: FreeEvolutionUnitary, schedule: OverlapSchedule, n: int
) -> float:
    """Exponential branch-word oracle for the survival probability.

    Sums, over every word on {=, !=} whose induced state word returns to
    0, the product of step coefficients times the overlaps collected
    while in state 1, and squares the modulus of the total. Exact but
    2^n; refuses n beyond the cap rather than sampling.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if n > ORACLE_MAX_STEPS:
        raise CapacityError(
            f"branch oracle enumerates 2^n words; n = {n} exceeds the "
            f"cap of {ORACLE_MAX_STEPS}"
        )
    return abs(_branch_amplitude(U, realize(schedule, n), n)) ** 2


BWord = namedtuple("BWord", ["bits", "returns_to_start"])

_FLIP_CHARS = {"≠", "!", "x"}
_HOLD_CHARS = {"="}


def b_word_from_alpha(alpha: str) -> BWord:
    """State word induced by a branch word: flips on '!=' , holds on '='.

    Accepts '=' for a state-preserving step and any of '≠', '!', 'x' for
    a flip. Returns the bits b_1..b_n and whether b_n = 0.
    """
    if not alpha:
        raise ValidationError("branch word must be nonempty")
    bits = []
    state = 0
    for ch in alpha:
        if ch in _FLIP_CHARS:
            state ^= 1
        elif ch not in _HOLD_CHARS:
            raise ValidationError(f"unexpected character {ch!r} in branch word")
        bits.append(state)
    return BWord(tuple(bits), bits[-1] == 0)


def survival_series(
    config: EvolutionConfig, schedule: OverlapSchedule
) -> SurvivalResult:
    """Run the chain defined by config and attach second-order comparisons."""
    return propagate_projected(
        config.step_unitary(), schedule, config.n, config=config
    )
