"""Second-order survival formula, Zeno criterion, and regime classification.

The central object is the weighted geometric tail

    S_tail(eta, n) = sum_{k=1}^{n-1} (n - k) * eta**k

which controls the second-order decay of the survival probability:
p_n ~= 1 - 2 * (n/2 + S_tail) * V * delta^2. The system freezes (Zeno
regime) iff S_tail / n^2 -> 0 as n grows with the schedule's eta_n.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
import warnings
from collections.abc import Iterator

from ._frozen import Frozen
from .errors import (UnclassifiableScheduleError, ValidationError, as_count, as_real,
                     real_number, square)
from .schedules import (
    ConstantOverlap,
    ExponentialOverlap,
    OverlapSchedule,
    PowerLawOverlap,
    family_eta,
)
from .unitary import EvolutionConfig

# Below this distance from eta = 1 the closed form divides by a tiny
# (1-eta)^2 and cancels catastrophically; _weighted_tail switches to phi2.
CLOSED_FORM_CROSSOVER = 1e-4
# numeric_limit_probe labels an extrapolated coefficient k within this of
# 0 (Zeno) or of 1 (free evolution).
PROBE_TOLERANCE = 1e-3


class Regime(enum.Enum):
    ZENO = "Zeno"
    FREE_EVOLUTION = "FreeEvolution"
    INTERMEDIATE = "Intermediate"


class RegimeClassification(Frozen):
    """Asymptotic label plus the coefficient k in lim p_n = 1 - k*V*T^2.

    k = 0 for the Zeno regime, k = 1 for free evolution, k in (0,1) for
    the intermediate family; numeric_limit_probe gives its extrapolated k.
    diagnostics carries (n, criterion value) probe points when produced
    numerically.
    """

    label: Regime
    limit_coefficient: float
    diagnostics: tuple[tuple[int, float], ...] = ()
    converged: bool = True

    def limit_p(self, V: float, T: float) -> float:
        """The second-order limit 1 - k*V*T^2 of the survival.

        An expansion, not a probability: it is below 0 when k*V*T^2 > 1.
        """
        return 1.0 - self.limit_coefficient * V * square(T)


def _check_eta_n(eta: float, n: int) -> int:
    """n as an int, once eta is a real number (real_number) in [0, 1] and n a
    step count (as_count)."""
    if not 0.0 <= real_number("eta", eta) <= 1.0:
        raise ValidationError(f"eta must lie in [0, 1], got {eta}")
    return as_count("n", n)


def _closed_form_tail(eta: float, n: int) -> float:
    return (n * eta * (1.0 - eta) + eta * (eta**n - 1.0)) / (1.0 - eta) ** 2


# _phi2(x) sums its Taylor series, sum_j x^j/(j+2)! by Horner's rule, above
# x = -INTERMEDIATE_SERIES_CUT, where the closed form cancels: against a
# 500-digit mpmath value, the closed form's relative error in
# intermediate_coefficient(alpha) = 2*phi2(-alpha) reaches 6.3e-16 on alpha
# in [1, 1.25], 5e-15 at 0.1 and 1 at 1e-17. The 30-term series stays within
# 2.7e-16 on (0, 2), and the closed form within 3.4e-16 on [2, 10]. At
# alpha = 1 both give the same float.
INTERMEDIATE_SERIES_CUT = 2.0
_PHI2_SERIES = tuple(1.0 / math.factorial(j + 2) for j in range(30))


def _phi2(x: float) -> float:
    """(e^x - 1 - x)/x^2 for x <= 0, the phi-function of exponential
    integrators (Hochbruck and Ostermann, Acta Numerica 19, 2010)."""
    if x > -INTERMEDIATE_SERIES_CUT:
        y = 0.0
        for c in reversed(_PHI2_SERIES):
            y = y * x + c
        return y
    return math.expm1(x) / square(x) - 1.0 / x


def _weighted_tail(eta: float, n: int) -> float:
    """sum_{k=1}^{n-1} (n - k) * eta**k, stable on all of [0, 1], in O(1).

    Within CLOSED_FORM_CROSSOVER of eta = 1 it is eta*n*(n*h^2*phi2(n*L) - g),
    with eps = 1 - eta, L = log1p(-eps), h = -L/eps = 1 + eps*g and
    g = (-L - eps)/eps^2 = sum_j eps^j/(j+2), of which 12 terms suffice:
    nothing cancels, and it stays within 3 eps of a 50-digit reference. At
    eta = 1 it is n*(n/2 - 1/2), correctly rounded.
    """
    if n == 1 or eta == 0.0:
        return 0.0
    if 1.0 - eta >= CLOSED_FORM_CROSSOVER:
        return _closed_form_tail(eta, n)
    eps = 1.0 - eta
    g = 0.0
    for j in range(13, 1, -1):
        g = g * eps + 1.0 / j
    e = eps * g
    p = n * _phi2(n * math.log1p(-eps))
    return eta * n * ((p - g) + p * (e * (2.0 + e)))


def _zeno_sums(eta: float, n: int) -> Iterator[float]:
    """zeno_sum(eta, i) = i/2 + S_tail(i) for i = 1..n, in O(n) in all.

    The closed-form side yields the scalar values for each i, bit for
    bit. Near eta = 1 two prefix recurrences replace a tail per i:

        G(i) = G(i-1) + eta^i,   S_tail(i+1) = S_tail(i) + G(i),

    each carried with Neumaier's compensation (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 4.3). All terms are
    positive, so the result stays within about an ulp of the exact sum.
    """
    yield 0.5
    if 1.0 - eta >= CLOSED_FORM_CROSSOVER:
        for i in range(2, n + 1):
            yield i / 2.0 + _closed_form_tail(eta, i)
        return
    g = g_err = s = s_err = 0.0
    for i in range(1, n):
        x = eta**i
        t = g + x
        g_err += (g - t) + x if g >= x else (x - t) + g
        g = t
        x = g + g_err
        t = s + x
        s_err += (s - t) + x if s >= x else (x - t) + s
        s = t
        yield (i + 1) / 2.0 + (s + s_err)


def zeno_sum(eta: float, n: int) -> float:
    """S(eta, n) = n/2 + sum_{k=1}^{n-1} (n-k) eta^k."""
    n = _check_eta_n(eta, n)
    return n / 2.0 + _weighted_tail(eta, n)


def criterion_value(eta: float, n: int) -> float:
    """The Zeno criterion term sum_{k=1}^{n-1} (n-k) eta^k / n^2.

    The regime is Zeno iff this tends to 0 as n grows. Identical to
    (zeno_sum(eta, n) - n/2) / n^2.
    """
    n = _check_eta_n(eta, n)
    return _weighted_tail(eta, n) / (n * n)


def second_order_partial(eta: float, config: EvolutionConfig, i: int) -> float:
    """Second-order survival 1 - 2*S(eta, i)*V*delta^2 after the first i of
    the run's n steps, with the run's step length delta = T/n.

    The expansion, not a probability: it leaves [0, 1] when 2*S*V*delta^2 > 1.
    The one owner of the step-size UserWarning, at V*delta^2 > 0.1. Scalar
    reference for second_order_series.
    """
    if not 1 <= i <= config.n:
        raise ValidationError(f"step index {i} outside 1..{config.n}")
    s = zeno_sum(eta, i)
    if config.vd2 > 0.1:
        warnings.warn(
            f"V*delta^2 = {config.vd2:.3g} > 0.1; the second-order formula is "
            "unreliable at this step size",
            stacklevel=2,
        )
    return _second_order(s, config.vd2)


def _second_order(s: float, vd2: float) -> float:
    """1 - 2*S*V*delta^2 from S and vd2 = V*delta^2, multiplied first."""
    return 1.0 - 2.0 * s * vd2


def second_order_series(eta: float, config: EvolutionConfig) -> Iterator[float]:
    """second_order_partial(eta, config, i) for i = 1..n in one O(n) pass.

    Returns an iterator that computes one row per value; eta and n are
    checked before it is returned. The rows never increase in i: each adds a
    non-negative term. They equal the scalar values bit for bit where the
    closed form applies and at eta = 1. Within CLOSED_FORM_CROSSOVER of eta = 1
    a row may differ from its scalar value by a few 2^-52, and so simulate's
    summary, the last row, from sweep's p_second_order, the O(1) tail's value.
    Both are kept: one algorithm for both costs about 8x on such rows.
    """
    _check_eta_n(eta, config.n)
    return map(_second_order, _zeno_sums(eta, config.n), itertools.repeat(config.vd2))


def intermediate_coefficient(alpha: float) -> float:
    """k(alpha) = 2*(1/alpha + (exp(-alpha) - 1)/alpha^2) = 2*phi2(-alpha)
    for the beta = 1 family."""
    return 2.0 * _phi2(-as_real("alpha", alpha, strict=True))


def classify_schedule(schedule: OverlapSchedule) -> RegimeClassification:
    """Analytic regime of a family schedule.

    Explicit schedules carry no analytic form and are rejected; probe
    them with numeric_limit_probe instead.
    """
    if isinstance(schedule, ConstantOverlap):
        if schedule.eta == 1.0:
            return RegimeClassification(Regime.FREE_EVOLUTION, 1.0)
        return RegimeClassification(Regime.ZENO, 0.0)
    if isinstance(schedule, PowerLawOverlap):
        if schedule.beta < 1.0:
            return RegimeClassification(Regime.ZENO, 0.0)
        if schedule.beta > 1.0:
            return RegimeClassification(Regime.FREE_EVOLUTION, 1.0)
        return RegimeClassification(
            Regime.INTERMEDIATE, intermediate_coefficient(schedule.alpha)
        )
    if isinstance(schedule, ExponentialOverlap):
        return RegimeClassification(Regime.FREE_EVOLUTION, 1.0)
    raise UnclassifiableScheduleError(
        f"{type(schedule).__name__} has no analytic regime; numeric-only"
    )


def _aitken_accelerate(seq: list[float]) -> tuple[float, bool]:
    """Iterated Aitken delta-squared extrapolation of a convergent sequence.

    Returns the extrapolated limit and whether the last two passes agreed
    (a convergence indicator, not a certificate).
    """
    estimates = [seq[-1]]
    s = list(seq)
    while len(s) >= 3:
        t = []
        for x0, x1, x2 in zip(s, s[1:], s[2:]):
            denom = (x2 - x1) - (x1 - x0)
            scale = max(abs(x0), abs(x1), abs(x2), 1.0)
            if abs(denom) <= 1e3 * sys.float_info.epsilon * scale:
                t.append(x2)
            else:
                t.append(x2 - square(x2 - x1) / denom)
        s = t
        estimates.append(s[-1])
    converged = (
        len(estimates) >= 2
        and abs(estimates[-1] - estimates[-2])
        <= 1e-6 * max(abs(estimates[-1]), 1.0) + 1e-12
    )
    return estimates[-1], converged


def numeric_limit_probe(schedule: OverlapSchedule, n_max: int) -> RegimeClassification:
    """Empirical regime label from extrapolating the coefficient k.

    Evaluates k_n = 2*zeno_sum(eta_n, n)/n^2, of which the
    second-order survival is 1 - k_n*V*T^2, along the powers of two
    n = 64, 128, ... up to n_max, accelerates the tail, clamps the limit k
    into [0, 1], where every k_n lies, and labels it Zeno within
    PROBE_TOLERANCE of 0, FreeEvolution within it of 1 and Intermediate
    otherwise. Neither V nor T enters.
    """
    n_max = as_count("n_max", n_max, least=64)
    seq = []
    diagnostics = []
    for n in (2**j for j in range(6, n_max.bit_length())):
        eta = family_eta(schedule, n)
        seq.append(2.0 * zeno_sum(eta, n) / (n * n))
        diagnostics.append((n, criterion_value(eta, n)))
    k, converged = _aitken_accelerate(seq)
    k = min(max(k, 0.0), 1.0)
    if abs(k) <= PROBE_TOLERANCE:
        label = Regime.ZENO
    elif abs(k - 1.0) <= PROBE_TOLERANCE:
        label = Regime.FREE_EVOLUTION
    else:
        label = Regime.INTERMEDIATE
    return RegimeClassification(label, k, tuple(diagnostics), converged)


class RegimeReport(Frozen):
    """classify's verdict at V and T: both classifications, the limit 1 - k*V*T^2 of
    each (kept if not finite, for the caller to refuse) and whether they agree."""

    analytic: RegimeClassification
    numeric: RegimeClassification
    limit_p: float
    numeric_limit: float
    agreement: bool


def regime_report(schedule: OverlapSchedule, V: float, T: float,
                  n_max: int = 2**20) -> RegimeReport:
    """classify_schedule and numeric_limit_probe(schedule, n_max), their limits at V and T,
    and agreement: equal labels or, near a regime boundary, coefficients k within
    PROBE_TOLERANCE. V and T are read by errors.as_real (V >= 0, T > 0), and T^2 must be finite."""
    as_real("V", V)
    if square(as_real("T", T, strict=True)) == math.inf:
        raise ValidationError(f"T = {T!r} puts T^2 in 1 - k*V*T^2 past the float range")
    analytic = classify_schedule(schedule)
    numeric = numeric_limit_probe(schedule, n_max)
    k_gap = abs(analytic.limit_coefficient - numeric.limit_coefficient)
    return RegimeReport(analytic, numeric, analytic.limit_p(V, T), numeric.limit_p(V, T),
                        analytic.label == numeric.label or k_gap <= PROBE_TOLERANCE)
