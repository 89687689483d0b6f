"""Refit the Chebyshev series of ``qgamma.qspecial._root_guess``.

The fit data are the zeros of the library's psi_q, each bisected from
[1, x0] to adjacent doubles (x0 the classical digamma zero): at 400
Chebyshev-Gauss nodes in s = -ln q over [0, -ln 0.05], and at 300 q with
1 - q log-spaced over [1e-5, 0.05], which hold the fit toward q = 1.  The
series of degree 22 in t = 2 s / s_max - 1 is
the one with the least largest error over these points among the
iterates of Lawson's iteratively reweighted least squares (see
``lawson_fit``).  Refit whenever psi_q changes:

    PYTHONPATH=src python scripts/fit_root_guess.py

prints the coefficients, highest degree first, for ``_ROOT_GUESS_CHEB``,
the largest error over the fit data and, over the same q, the worst ratio
of |psi_q| at the midpoint of the bracket g -+ ``_ROOT_GUESS_HALF_WIDTH``
to the reach that certifies it in ``psi_q_root``.  Where that ratio is
below 1, a solve from the refitted guess still takes one psi_q call.
"""

import math

import numpy as np
from numpy.polynomial import chebyshev

from qgamma.qcore import QParam
from qgamma.qspecial import _ROOT_GUESS_HALF_WIDTH, _ROOT_GUESS_S_MAX, _psi_q_root_reach, psi_q

DEGREE = 22
GAUSS_NODES = 400
NEAR_ONE = np.geomspace(1e-5, 0.05, 300)
LAWSON_STEPS = 500
# The positive zero of the classical digamma (DLMF 5.4(iii)), where psi_q's
# zero tends as q -> 1: psi_q(1) < 0 < psi_q(x0) over the fitted range.
CLASSICAL_ROOT = 1.4616321449683623


def bisected_zero(q: QParam) -> float:
    """psi_q's zero in [1, x0], bisected until the bracket's ends are
    adjacent doubles; the end with the smaller |psi_q|."""
    lo, hi = 1.0, CLASSICAL_ROOT
    f_lo, f_hi = psi_q(lo, q).value, psi_q(hi, q).value
    assert f_lo < 0.0 < f_hi, q
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if -f_lo <= f_hi else hi
        f_mid = psi_q(mid, q).value
        if f_mid == 0.0:
            return mid
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


def residual_over_reach(guess: float, q: QParam) -> float:
    """|psi_q(m)| over the reach of the bracket [lo, hi] around ``guess``, m
    its midpoint: the test that ``psi_q_root`` passes when it is below 1."""
    lo, hi = guess - _ROOT_GUESS_HALF_WIDTH, guess + _ROOT_GUESS_HALF_WIDTH
    mid = 0.5 * (lo + hi)
    return abs(psi_q(mid, q).value) / _psi_q_root_reach(lo, mid, hi, q)


def lawson_fit(basis: np.ndarray, zeros: np.ndarray) -> tuple:
    """The coefficients of the iterate with the least largest error over
    at most LAWSON_STEPS steps of Lawson's reweighting, from plain least
    squares (the first step), and that error.  Each step multiplies the
    weights by the errors of the step before, so a point that a step fits
    to the last bit has weight 0 from then on, and the weights of points it
    fits well fall geometrically and underflow to 0: the fit drops those
    points, and its largest error grows (from 1.0e-14 at the first step to
    1.56 by step 300, on the zeros of the q-Stirling psi_q).  So the best
    iterate, not the last, is kept, and the steps stop once no weight is
    left."""
    weights = np.full(len(zeros), 1.0 / len(zeros))
    best, least = None, math.inf
    for _ in range(LAWSON_STEPS):
        root_w = np.sqrt(weights)
        coef = np.linalg.lstsq(basis * root_w[:, None], zeros * root_w, rcond=None)[0]
        errors = np.abs(basis @ coef - zeros)
        if errors.max() < least:
            best, least = coef, float(errors.max())
        weights *= errors
        total = weights.sum()
        if not total > 0.0:
            break
        weights /= total
    return best, least


def main() -> None:
    nodes = np.cos(np.pi * (np.arange(GAUSS_NODES) + 0.5) / GAUSS_NODES)
    qs = [math.exp(-0.5 * _ROOT_GUESS_S_MAX * (t + 1.0)) for t in nodes]
    qs += [1.0 - float(one_minus_q) for one_minus_q in NEAR_ONE]
    params = [QParam(qv) for qv in qs]
    t = np.array([2.0 * -q.ln_q / _ROOT_GUESS_S_MAX - 1.0 for q in params])
    zeros = np.array([bisected_zero(q) for q in params])

    coef, largest = lawson_fit(chebyshev.chebvander(t, DEGREE), zeros)
    print("_ROOT_GUESS_CHEB = (")
    for c in coef[::-1]:
        print(f"    {float(c)!r},")
    print(")")
    guesses = chebyshev.chebval(t, coef)
    print(f"# largest error {largest:.2e} over {len(t)} fitted q")
    worst = max(residual_over_reach(float(g), q) for g, q in zip(guesses, params))
    print(f"# worst |psi_q(m)| / reach {worst:.2f} over the same q (the one-call solve needs < 1)")


if __name__ == "__main__":
    main()
