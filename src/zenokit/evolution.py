"""Exact survival probability of the alternating free/decoherence chain.

Two independent routes compute the same number:

* propagate_projected: linear-time recurrence on the projected amplitude
  pair (A_0, A_1), where each step applies the free unitary and then
  multiplies A_1 by that step's environment overlap.
* enumerate_branches: sum over all 2^n branch words, kept as an
  exactness oracle for the recurrence. It meets in the middle: the words
  of the first and of the second half of the steps are enumerated one by
  one, summed by the state where the halves meet, and the two sums
  multiplied, for about 2^(n/2) work; no words are merged by state
  within a half, so it shares no step with the recurrence.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .errors import CapacityError, as_count
from .schedules import OverlapSchedule, realize
from .unitary import FreeEvolutionUnitary

ORACLE_MAX_STEPS = 32


def propagate_projected(
    U: FreeEvolutionUnitary, schedule: OverlapSchedule, n: int
) -> Iterator[float]:
    """O(n) projected propagation of the chain.

    Keeps the amplitude pair (A_0, A_1) of the system conditioned on
    every environment so far having recorded 0; the overlap multiplies
    A_1 only, since <E_0|E_0> = 1. Returns an iterator over the survival
    probability |A_0|^2 after each of the n steps, which computes one
    step per value; n and the schedule are checked before it is returned.
    A value above 1, which the overlaps' 1e-12 modulus slack and rounding
    can both give, is yielded as 1.0.
    """
    return _projected_survival(U.coefficients, realize(schedule, n))


def _projected_survival(
    coefficients: tuple[complex, ...], overlaps: Iterable[complex]
) -> Iterator[float]:
    c_eq_0, c_neq_0, c_neq_1, c_eq_1 = coefficients
    a0, a1 = 1.0 + 0.0j, 0.0j
    for ov in overlaps:
        a0, a1 = c_eq_0 * a0 + c_neq_0 * a1, (c_neq_1 * a0 + c_eq_1 * a1) * ov
        p = abs(a0) ** 2
        yield 1.0 if p > 1.0 else p  # a nan is passed on, for the caller to refuse


def _branch_amplitude(
    coefficients: tuple[complex, ...], overlaps: tuple[complex, ...]
) -> complex:
    # Every word is a prefix over steps 1..m from state 0 followed by a
    # suffix over steps m+1..n from the prefix's end state s, so the sum
    # over words factors into P[0]*Q_0 + P[1]*Q_1.
    m = len(overlaps) // 2
    prefix = _word_weights(coefficients, overlaps[:m], 0)
    return sum(
        _fsum(prefix[s]) * _fsum(_word_weights(coefficients, overlaps[m:], s)[0])
        for s in (0, 1)
    )


def _word_weights(
    coefficients: tuple[complex, ...], overlaps: tuple[complex, ...], start: int
) -> tuple[list[complex], list[complex]]:
    """The weight of every branch word over these steps from state `start`,
    listed by end state. Each word extends to two words, one multiply
    each; no two words are merged."""
    c_eq_0, c_neq_0, c_neq_1, c_eq_1 = coefficients
    ends: tuple[list[complex], list[complex]] = ([], [])
    ends[start].append(1.0 + 0.0j)
    for ov in overlaps:
        # '=' keeps the state and '!=' flips it; entering state 1 collects ov.
        from_0, from_1 = ends
        to_1_from_0, to_1_from_1 = c_neq_1 * ov, c_eq_1 * ov
        ends = (
            [w * c_eq_0 for w in from_0] + [w * c_neq_0 for w in from_1],
            [w * to_1_from_0 for w in from_0] + [w * to_1_from_1 for w in from_1],
        )
    return ends


def _fsum(values: list[complex]) -> complex:
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


def enumerate_branches(
    U: FreeEvolutionUnitary, schedule: OverlapSchedule, n: int
) -> float:
    """Branch-word oracle for the survival probability.

    Sums, over every word on {=, !=} whose induced state word returns to
    0, the product of step coefficients times the overlaps collected
    while in state 1, and squares the modulus of the total. The words are
    enumerated one by one in two halves that meet at step n // 2, so the
    cost is about 2^(n/2) rather than 2^n; refuses n beyond the cap
    rather than sampling. A total above 1 is returned as 1.0, as
    propagate_projected yields it.
    """
    n = as_count("n", n)
    if n > ORACLE_MAX_STEPS:
        raise CapacityError(
            f"branch oracle sums 2^n words; n = {n} exceeds the "
            f"cap of {ORACLE_MAX_STEPS}"
        )
    p = abs(_branch_amplitude(U.coefficients, tuple(realize(schedule, n)))) ** 2
    return 1.0 if p > 1.0 else p
