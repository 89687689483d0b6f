"""Refit the Chebyshev series of ``qgamma.qspecial._root_guess``.

The fit data are the zeros of the library's psi_q, each bisected from
[1, x0] to adjacent doubles (x0 the classical digamma zero): at 400
Chebyshev-Gauss nodes in s = -ln q over [0, -ln 0.05], and at 300 q with
1 - q log-spaced over [1e-5, 0.05], where the computed zero bends away from
a smooth function of s.  The series of degree 22 in t = 2 s / s_max - 1 is
the one with the least largest error over these points, by Lawson's
iteratively reweighted least squares.  Refit whenever psi_q changes:

    PYTHONPATH=src python scripts/fit_root_guess.py

prints the coefficients, highest degree first, for ``_ROOT_GUESS_CHEB``,
and the largest error over the fit data.
"""

import math

import numpy as np
from numpy.polynomial import chebyshev

from qgamma.qcore import QParam
from qgamma.qspecial import _CLASSICAL_ROOT, _ROOT_GUESS_S_MAX, psi_q

DEGREE = 22
GAUSS_NODES = 400
NEAR_ONE = np.geomspace(1e-5, 0.05, 300)
LAWSON_STEPS = 500


def bisected_zero(q: QParam) -> float:
    """psi_q's zero in [1, x0], bisected until the bracket's ends are
    adjacent doubles; the end with the smaller |psi_q|."""
    lo, hi = 1.0, _CLASSICAL_ROOT
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


def main() -> None:
    nodes = np.cos(np.pi * (np.arange(GAUSS_NODES) + 0.5) / GAUSS_NODES)
    qs = [math.exp(-0.5 * _ROOT_GUESS_S_MAX * (t + 1.0)) for t in nodes]
    qs += [1.0 - float(one_minus_q) for one_minus_q in NEAR_ONE]
    params = [QParam(qv) for qv in qs]
    t = np.array([2.0 * -q.ln_q / _ROOT_GUESS_S_MAX - 1.0 for q in params])
    zeros = np.array([bisected_zero(q) for q in params])

    basis = chebyshev.chebvander(t, DEGREE)
    weights = np.full(len(t), 1.0 / len(t))
    for _ in range(LAWSON_STEPS):
        root_w = np.sqrt(weights)
        coef = np.linalg.lstsq(basis * root_w[:, None], zeros * root_w, rcond=None)[0]
        weights *= np.abs(basis @ coef - zeros)
        weights /= weights.sum()
    print("_ROOT_GUESS_CHEB = (")
    for c in coef[::-1]:
        print(f"    {float(c)!r},")
    print(")")
    print(f"# largest error {np.abs(basis @ coef - zeros).max():.2e} over {len(t)} fitted q")


if __name__ == "__main__":
    main()
