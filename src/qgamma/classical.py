"""Reference classical Gamma, digamma and Euler constant.

Used only to verify the q -> 1 limit behaviour and to evaluate the two
classical ratio inequalities.  Both operations shift x up by the recurrence
until x >= 10, then sum eight terms of the Stirling (resp. digamma)
asymptotic series.  For real z > 0 the remainder of either series is bounded
by its first omitted term and has the same sign (DLMF 5.11(ii)); at z = 10
that term is below 4e-18, so only double rounding is left: both functions
agree with mpmath to within 3e-14 absolute over x in [0.05, 30].
"""

from __future__ import annotations

import math

from .constants import BERNOULLI
from .qcore import Evaluation, new_record, require_positive

EULER_GAMMA = 0.5772156649015329

_SERIES_TERMS = 8
_SHIFT_TO = 10.0

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling coefficients B_2k / (2k (2k-1)) and digamma coefficients B_2k / 2k,
# k = 1..8; the *_OMITTED ones are those of the first omitted term, k = 9.
_LN_GAMMA_COEF = tuple(b / ((2 * k) * (2 * k - 1)) for k, b in enumerate(BERNOULLI[:_SERIES_TERMS], start=1))
_PSI_COEF = tuple(b / (2 * k) for k, b in enumerate(BERNOULLI[:_SERIES_TERMS], start=1))
_LN_GAMMA_OMITTED = BERNOULLI[_SERIES_TERMS] / (18 * 17)
_PSI_OMITTED = BERNOULLI[_SERIES_TERMS] / 18


def _shift(x: float) -> tuple[int, float]:
    """Recurrence steps n >= 0 with x + n >= 10, and the shifted argument."""
    require_positive(x)
    n = max(0, math.ceil(_SHIFT_TO - x))
    return n, x + n


def _horner(coef: tuple, w: float) -> float:
    """sum_k coef[k] w^k."""
    acc = 0.0
    for c in reversed(coef):
        acc = acc * w + c
    return acc


def ln_gamma_classical(x: float) -> Evaluation:
    """ln Gamma(x) by ln Gamma(x) = ln Gamma(x+n) - ln(x (x+1) ... (x+n-1)) and
    Stirling's series (z - 1/2) ln z - z + ln(2 pi)/2 + sum_k B_2k / (2k (2k-1) z^(2k-1)).

    ``error_estimate`` is the first omitted Stirling term; ``terms_used``
    counts recurrence steps plus series terms.
    """
    n, z = _shift(x)
    w = 1.0 / (z * z)
    value = (z - 0.5) * math.log(z) - z + _HALF_LN_2PI + _horner(_LN_GAMMA_COEF, w) / z
    if n:
        # x alone can be tiny; the product of the other factors is >= 1.
        product = 1.0
        for k in range(1, n):
            product *= x + k
        value -= math.log(x) + math.log(product)
    omitted = _LN_GAMMA_OMITTED * w**_SERIES_TERMS / z
    return new_record(Evaluation, (value, omitted, n + _SERIES_TERMS))


def psi_classical(x: float) -> Evaluation:
    """psi(x) by psi(x) = psi(x+n) - sum_{k<n} 1/(x+k) and the asymptotic
    series ln z - 1/(2z) - sum_k B_2k / (2k z^(2k)).

    ``error_estimate`` is the first omitted series term; ``terms_used``
    counts recurrence steps plus series terms.
    """
    n, z = _shift(x)
    w = 1.0 / (z * z)
    value = math.log(z) - 0.5 / z - _horner(_PSI_COEF, w) * w
    for k in range(n - 1, -1, -1):  # smallest reciprocals first
        value -= 1.0 / (x + k)
    omitted = _PSI_OMITTED * w ** (_SERIES_TERMS + 1)
    return new_record(Evaluation, (value, omitted, n + _SERIES_TERMS))
