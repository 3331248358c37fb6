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
from collections.abc import Iterable, Iterator

from .errors import CapacityError, ValidationError
from .schedules import OverlapSchedule, realize
from .unitary import FreeEvolutionUnitary

ORACLE_MAX_STEPS = 20
_ORACLE_CHUNK = 1 << 15


def propagate_projected(
    U: FreeEvolutionUnitary, schedule: OverlapSchedule, n: int
) -> Iterator[float]:
    """O(n) projected propagation of the chain.

    Keeps the amplitude pair (A_0, A_1) of the system conditioned on
    every environment so far having recorded 0; the overlap multiplies
    A_1 only, since <E_0|E_0> = 1. Returns an iterator over the survival
    probability |A_0|^2 after each of the n steps, which computes one
    step per value; n and the schedule are checked before it is returned.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    # The coefficients are properties (two of them call cmath.exp); read
    # them once rather than on every step.
    return _projected_survival(
        (U.c_eq_0, U.c_neq_0, U.c_neq_1, U.c_eq_1), realize(schedule, n)
    )


def _projected_survival(
    coefficients: tuple[complex, ...], overlaps: Iterable[complex]
) -> Iterator[float]:
    c_eq_0, c_neq_0, c_neq_1, c_eq_1 = coefficients
    a0, a1 = 1.0 + 0.0j, 0.0j
    for ov in overlaps:
        a0, a1 = c_eq_0 * a0 + c_neq_0 * a1, (c_neq_1 * a0 + c_eq_1 * a1) * ov
        yield abs(a0) ** 2


def _branch_amplitude(
    U: FreeEvolutionUnitary, overlaps: tuple[complex, ...], n: int
) -> complex:
    import numpy as np

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
    return abs(_branch_amplitude(U, tuple(realize(schedule, n)), n)) ** 2
