"""The q-special functions: ln Gamma_q, Gamma_q, psi_q, its derivatives,
the q-Euler constant, and the unique positive root of psi_q.

Gamma_q is only ever computed through its logarithm; the raw product over-
and underflows quickly and every downstream inequality works in log space
anyway.  Arguments x <= 0 are rejected: no analytic continuation.

ln Gamma_q is Moak's q-Stirling expansion (Moak 1984, Rocky Mountain J.
Math. 14): the recurrence up to T >= 10 plus Euler-Maclaurin for the tail,
the scheme classical.py uses at q = 1.  It sums at most 18 terms at every q,
and its remainder is bounded by the larger first omitted term of the two
tails (DLMF 2.10(i)).  It computes F(x) - F(y), F(t) = -sum_k ln(1-q^(t+k)),
so ln_gamma_q(x, q, y=y) is the log ratio ln Gamma_q(x) - ln Gamma_q(y) in
one sum (y = 1 by default, Gamma_q(1) = 1), exactly antisymmetric in x, y.
psi_q and psi_q^(m) take K = max(0, ceil(sqrt(L/s) - x)) recurrence steps
(s = -ln q, L = -ln REL_TOL; DLMF 5.5.2 with q) and sum the rest as their
geometric n-series at x + K, one path for every x: at most about
2 sqrt(30/(1-q)) terms, with the first omitted tail term, over one minus
its certified ratio, as the error bound.  Results are Evaluation and
PsiRoot records, immutable NamedTuples that unpack, index and compare
equal to plain tuples (see ``qcore``).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

from .constants import BERNOULLI, MAX_EXP
from .errors import BracketFailure, DomainError, NonConvergence, Overflow
from .qcore import (DEFAULT_CONFIG, REL_TOL, EvalConfig, Evaluation, QParam, cap_error, new_record,
                    require_positive, sum_geometric_decay)


def _eulerian(m: int) -> list[int]:
    """Coefficients of the Eulerian polynomial A_m, constant term first.

    sum_{n>=1} n^m u^n = u A_m(u) / (1-u)^(m+1)  (DLMF 26.14.3, 25.12.10);
    A(m, j) = (j+1) A(m-1, j) + (m-j) A(m-1, j-1) from A_0 = 1.
    """
    coeffs = [1]
    for k in range(1, m + 1):
        prev = [0, *coeffs, 0]
        coeffs = [(j + 1) * prev[j + 1] + (k - j) * prev[j] for j in range(k)]
    return coeffs


_ZETA2 = math.pi**2 / 6.0
_LN2 = math.log(2.0)
_EPS = 2.0**-53

# q-Stirling corrections B_2j/(2j)! s^(2j-1) Li_{2-2j}(u), j = 1..9, with
# Li_{2-2j}(u) = u A_{2j-2}(u) / (1-u)^(2j-1): the factor B_2j/(2j)! and the
# coefficients of A_{2j-2} (a palindrome, so their order does not matter).
# At most _EM_TERMS are added; the next one bounds the remainder.
_EM_COEF = tuple(
    (b / math.factorial(2 * j), tuple(float(c) for c in _eulerian(2 * j - 2)))
    for j, b in enumerate(BERNOULLI, start=1)
)
_EM_TERMS = len(_EM_COEF) - 1

# Li_2(e^-w) - zeta(2) = w ln w - w - w^2/4 + sum_j B_2j w^(2j+1) / (2j (2j+1)!)
# (the expansion about w = 0, with zeta(1-2j) = -B_2j/(2j)), and
# Li_2(u) = z - z^2/4 + sum_j B_2j z^(2j+1) / (2j+1)! with z = -ln(1-u)
# ('t Hooft & Veltman 1979); both converge for arguments below 2 pi.
_LI2_W = tuple(b / (2 * j * math.factorial(2 * j + 1)) for j, b in enumerate(BERNOULLI, start=1))
_LI2_Z = tuple(b / math.factorial(2 * j + 1) for j, b in enumerate(BERNOULLI, start=1))

# Below this, 1 - q^x = s x to double precision and s x may be subnormal.
_TINY_W = 1e-300

# Corrections stop at 1/1024 of the accuracy contract REL_TOL, which leaves
# a truncation of about 1e-16 of max(1, |value|), below rounding.
# Differences of nearby values then keep their digits: over the strict
# inequalities of `verify --seed 42` the margins that rounding pushes
# below 0 stay above -4e-15, against -3e-14 when corrections stop at 1/16,
# for about 1.4 more terms per call.
_EM_STOP = 1.0 / 1024.0


def _li2_w(w: float) -> float:
    """sum_j B_2j w^(2j) / (2j (2j+1)!): what the w-series adds, over w, to
    w ln w - w - w^2/4 in Li_2(e^(-w)) - zeta(2).

    Summed until the next term is below 2^-53: it is added to
    ln t - 1 - w/4 > 1 (t >= 10, w <= 1), so that is below rounding.
    """
    v = w * w
    acc = 0.0
    p = 1.0
    for c in _LI2_W:
        p *= v
        term = c * p
        if abs(term) <= _EPS:
            break
        acc += term
    return acc


def _li2_z(z: float) -> float:
    """sum_j B_2j z^(2j+1) / (2j+1)!: what the z-series adds to z - z^2/4
    in Li_2(u), z = -ln(1-u) < ln 2, summed until the next term is below
    2^-53 z (Li_2(u) > 0.8 z)."""
    v = z * z
    acc = 0.0
    p = z
    for c in _LI2_Z:
        p *= v
        term = c * p
        if abs(term) <= _EPS * z:
            break
        acc += term
    return acc


def _li2_tail_difference(
    tx: float, ty: float, s: float, zx: float, zy: float, dz: float, ln_s: Optional[float]
) -> float:
    """The integral of h(u) = -ln(1-q^u) over u > tx less that over u > ty
    (tx >= ty >= 10), [Li_2(e^(-s tx)) - Li_2(e^(-s ty))] / s, less
    (tx - ty) ln s when ln_s (= ln s) is given: that part joins the start
    value of ln_gamma_q, and zeta(2)/s cancels.  zx = h(tx), zy = h(ty)
    and dz = zx - zy, formed from the difference of the two q^T.

    With ln_s given (s <= ln 2 / 10), tails at w = s t <= 1 take the series
    in w, in which zeta(2) and t ln s drop out symbolically and
    t ln t - t - s t^2/4 is left; otherwise tails at w > ln 2 take the
    series in z = h(t) < ln 2.  When both take one series, the parts that
    grow with t cancel in closed form: with d = tx - ty,
    tx ln tx - ty ln ty = d ln tx + ty log1p(d / ty), and
    zx - zx^2/4 - (zy - zy^2/4) = dz (1 - (zx + zy)/4), so that close
    arguments keep their digits.  Otherwise s ty <= ln 2 < 1 < s tx, so
    s d > 1 - ln 2, and each tail is taken whole.  Each series argument is
    at most 1, where the terms fall by (1 / 2 pi)^2 ~ 0.025 or faster, and
    at most nine are summed.
    """
    wy = s * ty
    if ln_s is not None and s * tx <= 1.0:
        d = tx - ty
        tails = tx * _li2_w(s * tx) - ty * _li2_w(wy)
        return d * (math.log(tx) - 1.0 - 0.25 * s * (tx + ty)) + ty * math.log1p(d / ty) + tails
    if ln_s is None or wy > _LN2:
        diff = (dz * (1.0 - 0.25 * (zx + zy)) + (_li2_z(zx) - _li2_z(zy))) / s
        return diff if ln_s is None else diff - (tx - ty) * ln_s
    ret_x = (zx - 0.25 * zx * zx + _li2_z(zx) - _ZETA2) / s - tx * ln_s
    return ret_x - ty * (math.log(ty) - 1.0 - 0.25 * wy + _li2_w(wy))


def ln_gamma_q(x: float, q: QParam, cfg: EvalConfig = DEFAULT_CONFIG, *, y: float = 1.0) -> Evaluation:
    """ln Gamma_q(x) - ln Gamma_q(y) = (y-x) ln(1-q) + F(x) - F(y),
    F(t) = sum_{k>=0} h(t+k), h(t) = -ln(1-q^t), as one q-Stirling sum;
    Gamma_q(1) = 1, so the default y = 1 gives ln Gamma_q(x).

    The arguments are ordered so that x >= y, and a swap negates the result
    at the end: ln_gamma_q(a, q, y=b) == -ln_gamma_q(b, q, y=a) exactly,
    with the same bound and terms, and y == x gives exactly 0.

    With s = -ln q, each F is its first N terms plus the Euler-Maclaurin
    tail at T = x + N (resp. y + N), N = 9 if y >= 1 else 10, so that both
    tails start at T >= 10:
        Li_2(e^(-sT)) / s + h(T)/2
            + sum_j B_2j/(2j)! s^(2j-1) Li_{2-2j}(e^(-sT)).
    The first N terms are paired as ln((1-q^(y+k)) / (1-q^(x+k))), every
    1 - q^t being -expm1(-s t), or s t below _TINY_W, so that a value near
    the pole at 0 keeps its digits.  The two integrals are differenced by
    _li2_tail_difference, in which the parts that grow with T cancel in
    closed form; for q >= 2^(-1/10) it leaves out (tx - ty) ln s, which
    joins (y-x) ln(1-q) as (y-x) ln((1-q)/s).  h(tx) - h(ty) is formed from
    q^tx - q^ty, and each tail is moved from the rounded x + N (resp. y + N)
    to the exact one by its slope.  So close arguments keep their digits,
    and no F(1) of two ln Gamma_q values has to cancel in a ratio.

    h is completely monotone, so the remainder after any number of
    corrections has the sign of the first omitted one, the sign of B_2j,
    and is bounded by it (DLMF 2.10(i)); the two remainders have one sign,
    so the larger of the two first omitted corrections bounds their
    difference.  Corrections are added until that bound is at most
    REL_TOL * max(1, |value|) / 1024 (an absolute error on a log is a
    relative one on the ratio), and at most eight of them.
    ``error_estimate`` is that bound; the Li_2 series are summed to
    rounding and, like rounding, are left out of it.  ``terms_used`` is N
    plus the corrections added.  NonConvergence, with the partial value and
    its bound, is raised when that would exceed cfg.max_terms.
    """
    require_positive(x)
    require_positive(y, "y")
    swapped = y > x
    if swapped:
        x, y = y, x
    expm1 = math.expm1
    log = math.log
    s = -q.ln_q
    n = 9 if y >= 1.0 else 10
    if s * 10.0 <= _LN2:
        ln_s = log(s)
        value = (y - x) * log((1.0 - q.q) / s)
    else:
        ln_s = None
        value = (y - x) * math.log1p(-q.q)

    limit = min(n, cfg.max_terms)
    start = 0
    if s * y < _TINY_W:
        # The k = 0 pair is ln(s y / (1-q^x)), with 1 - q^x = s x if tiny.
        value += log(y / x) if s * x < _TINY_W else log(y) - (log(-expm1(-s * x)) - log(s))
        start = 1
    for k in range(start, limit):
        value += log(expm1(-s * (y + k)) / expm1(-s * (x + k)))
    if limit < n:
        # The pair terms fall by a factor q or more each, from k = 0.
        bound = abs(log(expm1(-s * (y + limit)) / expm1(-s * (x + limit)))) / (1.0 - q.q)
        raise cap_error(cfg, -value if swapped else value, bound, limit)

    tx, ty = x + n, y + n
    ux, uy = math.exp(-s * tx), math.exp(-s * ty)
    dx, dy = -expm1(-s * tx), -expm1(-s * ty)
    zx, zy = -log(dx), -log(dy)
    dz = -math.log1p(-uy * expm1(-s * (tx - ty)) / dy)  # h(tx) - h(ty)
    value += 0.5 * dz + _li2_tail_difference(tx, ty, s, zx, zy, dz, ln_s)
    # x + N and y + N are rounded, by ex = x + N - tx (exact, Fast2Sum) and
    # ey: each tail is moved from T to T + e by its slope -h(T) to first
    # order.  With ln_s, the T ln s taken out of the two tails is
    # (tx - ty) ln s = (x - y - ex + ey) ln s, and the start value holds
    # (x - y) ln s of it.
    ex = n - (tx - x) if x >= n else x - (tx - n)
    ey = n - (ty - y) if y >= n else y - (ty - n)
    ln_s0 = 0.0 if ln_s is None else ln_s
    value -= ex * (zx + ln_s0) - ey * (zy + ln_s0)

    tol = REL_TOL * _EM_STOP * max(1.0, abs(value))
    rx, ry = s / dx, s / dy
    px, py = ux * rx, uy * ry  # u r^(2j-1) at j = 1
    rx *= rx
    ry *= ry
    allowed = min(_EM_TERMS, cfg.max_terms - n)
    for j, (coef, poly) in enumerate(_EM_COEF):
        ax = ay = 0.0
        for c in poly:
            ax = ax * ux + c
            ay = ay * uy + c
        cx, cy = coef * px * ax, coef * py * ay
        # max(|cx|, |cy|): cx and cy have the sign of coef (or are zero).
        if coef > 0.0:
            bound = cx if cx > cy else cy
        else:
            bound = -cx if cx < cy else -cy
        if bound <= tol or j == allowed:
            break
        value += cx - cy
        px *= rx
        py *= ry
    if swapped:
        value = -value
    if bound > tol and j < _EM_TERMS:
        raise cap_error(cfg, value, bound, n + j)
    return new_record(Evaluation, (value, bound, n + j))


def gamma_q(x: float, q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> Evaluation:
    """Gamma_q(x) = exp(ln Gamma_q(x)); truncation bound scaled by the value."""
    ln_ev = ln_gamma_q(x, q, cfg)
    if ln_ev.value > MAX_EXP:
        raise Overflow(f"Gamma_q({x}, q={q.q}) exceeds the double range (ln = {ln_ev.value:.6g})")
    value = math.exp(ln_ev.value)
    return new_record(Evaluation, (value, abs(value) * ln_ev.error_estimate, ln_ev.terms_used))


# -ln REL_TOL: a tail at ratio q^y falls below REL_TOL of its first term
# after about this / (s y) terms, s = -ln q.
_TAIL_LOG = -math.log(REL_TOL)

# q^y underflows to 0 once s y > 745 (tiny q, or large x); the tail ratio
# is then rounded up to the least positive double, a valid bound still.
_LEAST_RATIO = math.ulp(0.0)

_LN_9_8 = math.log(1.125)


def _head_length(x: float, q: QParam) -> int:
    """K = max(0, ceil(sqrt(L/s) - x)), s = -ln q and L = -ln REL_TOL: the
    number of recurrence steps that minimises K + L / (s (x+K)), the head
    terms plus the tail terms at ratio q^(x+K)."""
    return max(0, math.ceil(math.sqrt(_TAIL_LOG / -q.ln_q) - x))


def psi_q(x: float, q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> Evaluation:
    """psi_q(x) = -ln(1-q) + (ln q) sum_{n>=1} q^(nx) / (1-q^n), as K
    recurrence steps plus that series at the shifted argument y = x + K.

    Expanding 1/(1-q^n) = sum_{k>=0} q^(nk) makes the sum the double series
    sum_{n>=1, k>=0} q^(n(x+k)).  Its first K terms along k are summed
    directly (the recurrence psi_q(x+1) = psi_q(x) - (ln q) u/(1-u), u = q^x,
    taken K times), and the rest along n at y:
        psi_q(x) = -ln(1-q) + (ln q) [sum_{k<K} u_k / (1-u_k)
                                      + sum_{n>=1} q^(ny) / (1-q^n)],
    u_k = q^(x+k).  The n-summand ratio q^y (1-q^n)/(1-q^(n+1)) < q^y is
    certified from n = 1.  K = max(0, ceil(sqrt(L/s) - x)), s = -ln q and
    L = -ln REL_TOL, so that the head and the tail each take at most about
    sqrt(L/s) terms, about 2 sqrt(30/(1-q)) in all as q -> 1.

    Each head term (ln q) u/(1-u) is taken as ln q / expm1(s (x+k)), with
    ln q inside, so that a value near the pole at 0 stays in range as long
    as the result does; one beyond it raises Overflow.  The tail's 1 - q^n
    is -expm1(n ln q), which keeps its digits as q -> 1.

    The head terms count against cfg.max_terms and the tail goes to
    sum_geometric_decay with the rest of the budget.  A cap in the head
    raises NonConvergence with the head's partial value and the bound
    |next head term| / (1-q) on the rest of the k-form, which falls by q
    per term; a cap in the tail, with the head plus the tail's partial value
    and the tail's bound.  ``terms_used`` is K plus the tail terms.
    """
    require_positive(x)
    exp = math.exp
    expm1 = math.expm1
    ln_q = q.ln_q
    s = -ln_q
    max_terms = cfg.max_terms
    k_end = _head_length(x, q)
    limit = min(k_end, max_terms)
    y_ln_q = (x + k_end) * ln_q
    offset = -math.log1p(-q.q)

    # exp(n y ln q) inlined from q_pow; this loop dominates every
    # certification run.
    def tail_term(n: int) -> float:
        return exp(n * y_ln_q) / -expm1(n * ln_q)

    value = term = 0.0
    try:
        # Each term is added one step late, so that a cap in the head leaves
        # the first term it cut in ``term``.
        for k in range(limit + 1 if limit == max_terms else limit):
            value += term
            term = ln_q / expm1(s * (x + k))
        if limit < max_terms:
            value += term
            if math.isfinite(value):
                ratio = max(exp(y_ln_q), _LEAST_RATIO)
                tail = sum_geometric_decay(tail_term, ratio, 1, EvalConfig(max_terms - limit) if limit else cfg)
                value = offset + (value + ln_q * tail.value)
    except NonConvergence as exc:
        partial = offset + (value + ln_q * exc.partial_value)
        raise cap_error(cfg, partial, s * exc.error_estimate, max_terms) from None
    except (ZeroDivisionError, OverflowError):
        value = math.inf
    if not math.isfinite(value):
        raise Overflow(f"psi_q{(x, q.q)!r} exceeds the double range")
    if limit == max_terms:
        raise cap_error(cfg, offset + value, abs(term) / (1.0 - q.q), limit)
    return new_record(Evaluation, (value, s * tail.error_estimate, limit + tail.terms_used))


def psi_q_m(m: int, x: float, q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> Evaluation:
    """m-th derivative of psi_q: (ln q)^(m+1) sum_{n>=1} n^m q^(nx) / (1-q^n),
    as K recurrence steps plus that series at y = x + K.

    Sign follows (ln q)^(m+1) = (-1)^(m+1) s^(m+1), s = -ln q: positive for
    odd m, negative for even m.

    As for psi_q, with psi_q's K and its cap rules, the double series
    sum_{n>=1, k>=0} n^m q^(n(x+k)) is summed along k for k < K and along
    n at y for the rest:
        (ln q)^(m+1) [sum_{k<K} Li_{-m}(u_k) + sum_{n>=1} n^m q^(ny) / (1-q^n)],
    u_k = q^(x+k), with Li_{-m}(u) = sum_n n^m u^n = u A_m(u) / (1-u)^(m+1)
    and A_m the Eulerian polynomial.  Each 1 - u is -expm1((x+k) ln q), and
    (ln q)^(m+1) is taken into each head term as (ln q / (1-u_k))^(m+1), so
    that a value near the pole at 0 stays in range as long as the result
    does; one beyond it raises Overflow.  s^(m+1) is taken into each tail
    summand too, as (n q^(ny/m) s^((m+1)/m))^m / (1-q^n), with the sign
    applied once to the tail sum, so that no factor leaves the range before
    the summand does; a summand or sum beyond it raises Overflow.  A_m
    takes about m^3 steps to build, so it is built only for a nonempty
    head, and first s^(m+1) n^m q^(nx), below |psi_q^(m)(x)| at every
    n >= 1, is checked against the range at n = max(1, round(m / (s x))),
    near its largest.

    The n-summand ratio (1+1/n)^m q^y (1-q^n)/(1-q^(n+1)) approaches q^y
    from above, so plain q^y does not dominate.  It is below 2^m q^y for
    every n >= 1, so when 2^m q^y < 1/2 that is the ratio passed on, and
    the tail bound holds after any number of terms, a cap stop included.
    Otherwise we pass the inflated ratio
        r = min((9/8)^m q^y, (1+q^y)/2),
    which holds from n0 = 8 in the first branch and from
    n0 = ceil(m / ln((1+q^y) / (2 q^y))) in the second, and
    sum_geometric_decay sums the summands below n0 with no stop test.  They
    can rise to a peak near n = m / (s y) from below the double range or
    ABS_TOL, so a stop test there would bound nothing: at m = 2100,
    x = 1000, q = 0.5 it would return 0.0 for about -3.14e-236.
    """
    if m < 1 or m != int(m):
        raise DomainError(f"m must be an integer >= 1, got {m!r}")
    require_positive(x)
    exp = math.exp
    expm1 = math.expm1
    ln_q = q.ln_q
    s = -ln_q
    # Capped, so that an s x that underflows cannot make n infinite.
    n = max(1, round(min(m / max(s * x, _LEAST_RATIO), 1e300)))
    if (m + 1) * math.log(s) + m * math.log(n) - n * s * x > MAX_EXP:
        raise Overflow(f"psi_q_m{(m, x, q.q)!r} exceeds the double range")
    power = m + 1
    sign = 1.0 if m % 2 else -1.0
    max_terms = cfg.max_terms
    k_end = _head_length(x, q)
    limit = min(k_end, max_terms)
    eulerian = _eulerian(int(m))[::-1] if k_end else ()
    y_ln_q = (x + k_end) * ln_q
    y_ln_q_over_m = y_ln_q / m
    scale = s * s ** (1.0 / m)  # s^((m+1)/m)
    qy = max(exp(y_ln_q), _LEAST_RATIO)
    ratio_from = 1
    if qy < 0.5 ** (m + 1):
        ratio = math.ldexp(qy, int(m))
    else:
        # (9/8)^m q^y is formed in logs, as 1.125**m alone overflows from
        # m = 6027; at 1 or above it cannot be the smaller of the two.
        ratio = 0.5 * (1.0 + qy)
        log_inflated = m * _LN_9_8 + y_ln_q
        inflated = exp(log_inflated) if log_inflated < 0.0 else ratio
        if inflated < ratio:
            ratio = inflated if inflated > _LEAST_RATIO else _LEAST_RATIO
            ratio_from = 8
        else:
            # (1+1/n)^m <= e^(m/n) <= (1+q^y) / (2 q^y) from n0 on; the log
            # keeps its digits from 1 - q^y where q^y is near 1, and cannot
            # overflow where q^y is tiny.
            if qy > 0.25:
                log_ratio_gap = math.log1p(-expm1(y_ln_q) / (2.0 * qy))
            else:
                log_ratio_gap = math.log1p(qy) - _LN2 - y_ln_q
            ratio_from = math.ceil(m / log_ratio_gap)

    def tail_term(n: int) -> float:
        return (n * exp(n * y_ln_q_over_m) * scale) ** m / -expm1(n * ln_q)

    value = term = 0.0
    try:
        # Added one step late, as in psi_q.
        for k in range(limit + 1 if limit == max_terms else limit):
            value += term
            t = (x + k) * ln_q
            u = exp(t)
            a = 0.0
            for c in eulerian:
                a = a * u + c
            term = u * a * (ln_q / -expm1(t)) ** power
        if limit < max_terms:
            value += term
            if math.isfinite(value):
                tail_cfg = EvalConfig(max_terms - limit) if limit else cfg
                tail = sum_geometric_decay(tail_term, ratio, 1, tail_cfg, ratio_from)
                value += sign * tail.value
    except NonConvergence as exc:
        raise cap_error(cfg, value + sign * exc.partial_value, exc.error_estimate, max_terms) from None
    except (ZeroDivisionError, OverflowError):
        value = math.inf
    if not math.isfinite(value):
        raise Overflow(f"psi_q_m{(m, x, q.q)!r} exceeds the double range")
    if limit == max_terms:
        raise cap_error(cfg, value, abs(term) / (1.0 - q.q), limit)
    return new_record(Evaluation, (value, tail.error_estimate, limit + tail.terms_used))


def euler_gamma_q(q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> Evaluation:
    """q-extension of the Euler-Mascheroni constant: -psi_q(1)."""
    ev = psi_q(1.0, q, cfg)
    return new_record(Evaluation, (-ev.value, ev.error_estimate, ev.terms_used))


class PsiRoot(NamedTuple):
    """The unique positive zero of psi_q with its certifying bracket."""

    q: QParam
    root: float
    bracket_low: float
    bracket_high: float
    residual: float


_ROOT_WIDTH_TOL = 1e-12
_ROOT_RESIDUAL_TOL = 1e-10
_ROOT_MAX_STEPS = 64

# The positive zero of the classical digamma (DLMF 5.4(iii)), where the
# root of psi_q tends as q -> 1; psi_q(1) < 0 < psi_q(x0) at every q tried,
# from 1e-300 to 1 - 2e-10.
_CLASSICAL_ROOT = 1.4616321449683623

# The root guess g(q) = sum_k c_k T_k(t), a Chebyshev series of degree 22
# in t = 2 s / s_max - 1, s = -ln q and s_max = -ln 0.05, so q in
# [0.05, 1) maps to t in (-1, 1].  Its coefficients, highest degree first as
# Clenshaw's recurrence takes them, minimise the largest error against the
# zeros of psi_q, each bisected to adjacent doubles, at 400 Chebyshev-Gauss
# nodes in s over [0, s_max] and 300 q with 1 - q log-spaced over
# [1e-5, 0.05] (Lawson's iteratively reweighted least squares).  That error
# is 1.2e-13 there and at most 1.3e-13 over 9,200 other q in
# [0.05, 1 - 1e-5], 7,200 of them log-uniform in 1 - q.  Toward q = 1 the
# computed zero drifts off the series that fits it elsewhere, by about
# 2e-13 at 1 - q = 1e-5 (psi_q's error_estimate is 4e-13 there); the
# log-spaced points hold the fit to that drift, and the fit stops at 1e-5.
# When psi_q changes, refit with scripts/fit_root_guess.py, which prints
# this tuple.
_ROOT_GUESS_CHEB = (
    -1.1537348416224806e-13,
    3.869907083978238e-14,
    1.6880779116151913e-14,
    -2.804413494335968e-13,
    -4.533966040973868e-14,
    1.9284228959772547e-12,
    2.716940542499977e-13,
    -1.421958416410707e-11,
    -6.855334872784212e-12,
    1.1521195958102785e-10,
    1.4894040106351948e-10,
    -9.7744353932302e-10,
    -2.9147549169734207e-09,
    7.056605562168734e-09,
    5.697262996004062e-08,
    3.215904161597725e-08,
    -1.2172575598310531e-06,
    -5.627512643187457e-06,
    3.587931240136352e-05,
    0.00038967590039137027,
    -0.002169671084998708,
    -0.04120842846567188,
    1.4229427580610823,
)
_ROOT_GUESS_S_MAX = -math.log(0.05)  # the fitted range's top
# Half-width of the bracket around the guess: 2.3 times the largest error,
# and small enough that the bracket is at most 1e-12 wide from the start.
_ROOT_GUESS_HALF_WIDTH = 3e-13


def _root_guess(q: QParam) -> Optional[float]:
    """The fitted guess g(q) of psi_q's positive zero, or None for q below
    the fitted range (s > -ln 0.05)."""
    s = -q.ln_q
    if s > _ROOT_GUESS_S_MAX:
        return None
    t = 2.0 * s / _ROOT_GUESS_S_MAX - 1.0
    t2 = t + t
    b1 = b2 = 0.0
    for c in _ROOT_GUESS_CHEB[:-1]:
        b1, b2 = c + t2 * b1 - b2, b1
    return _ROOT_GUESS_CHEB[-1] + t * b1 - b2


def psi_q_root(q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> PsiRoot:
    """The positive zero of psi_q, certified by a sign change of psi_q
    across a bracket at most 1e-12 wide.

    For q >= 0.05 the bracket starts at g -+ 3e-13, g a fitted guess of the
    root (see _root_guess) within 1.3e-13 of psi_q's zero for q in
    [0.05, 1 - 1e-5].  That bracket is narrow enough from the start, so the
    solve takes no trial: the bracket's two ends, whose signs certify it,
    and the residual at its midpoint are 3 psi_q calls, at every q tried
    in that range and beyond it up to 1 - 6e-7.  Otherwise, or if psi_q
    does not change sign across those ends (at some q above 1 - 6e-7, where
    the computed zero drifts off the fit; 8 calls then), it takes bracketed
    secant steps from [1, x0], x0 the classical digamma zero, and raises
    BracketFailure if psi_q does not change sign across that either.  Each
    trial is the secant of the last two points evaluated, the first one
    the chord of the bracket, or the bracket's midpoint if that secant
    lands outside the bracket (only at q below about 5e-3 in the q tried,
    where psi_q is nearly flat right of the root).  The trial's sign
    decides which end it replaces.  From [1, x0] a solve takes 19 psi_q
    calls on average and at most 35 over 3,000 q log-uniform in
    (1e-300, 0.05).

    Each trial is clamped to half the width tolerance inside the bracket:
    once a step falls below that, the clamped trial lies across the root
    and closes the bracket to width 1e-12.  A trial where psi_q is exactly
    0 is the root, with the bracket t -+ 2.5e-13, whose signs are checked.
    The loop is bounded and raises BracketFailure at its bound.  No point is
    evaluated twice: the final midpoint can land on a point already
    evaluated, whose value is reused.

    q below the least normal double raises DomainError: psi_q is of order
    q near its zero, so the signs that would certify a bracket come from
    values that have lost their bits (at q = 1e-320 the root would be off
    by 1.3e-4).
    """
    if q.q < sys.float_info.min:
        raise DomainError(f"psi_q's root is not certified for subnormal q={q.q!r}")
    values: dict[float, float] = {}

    def f(t: float) -> float:
        value = values.get(t)
        if value is None:
            value = values[t] = psi_q(t, q, cfg).value
        return value

    guess = _root_guess(q)
    if guess is not None:
        lo, hi = guess - _ROOT_GUESS_HALF_WIDTH, guess + _ROOT_GUESS_HALF_WIDTH
        f_lo, f_hi = f(lo), f(hi)
    if guess is None or not f_lo < 0.0 < f_hi:
        lo, hi = 1.0, _CLASSICAL_ROOT
        f_lo, f_hi = f(lo), f(hi)
        if not f_lo < 0.0 < f_hi:
            raise BracketFailure(f"psi_q does not change sign across [{lo}, {hi}] for q={q.q}")

    half_tol = 0.5 * _ROOT_WIDTH_TOL
    a, f_a, b, f_b = lo, f_lo, hi, f_hi  # the last two points, b the latest
    for _ in range(_ROOT_MAX_STEPS):
        if hi - lo <= _ROOT_WIDTH_TOL:
            break
        t = b - f_b * (b - a) / (f_b - f_a) if f_b != f_a else lo
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        t = min(max(t, lo + half_tol), hi - half_tol)
        f_t = f(t)
        if f_t == 0.0:
            lo, hi = t - 0.5 * half_tol, t + 0.5 * half_tol
            if not f(lo) < 0.0 < f(hi):
                raise BracketFailure(
                    f"psi_q does not change sign across [{lo}, {hi}] around a zero for q={q.q}"
                )
            return PsiRoot(q=q, root=t, bracket_low=lo, bracket_high=hi, residual=f_t)
        a, f_a, b, f_b = b, f_b, t, f_t
        if f_t < 0.0:
            lo = t
        else:
            hi = t
    if hi - lo > _ROOT_WIDTH_TOL:
        raise BracketFailure(f"bracket wider than {_ROOT_WIDTH_TOL} after {_ROOT_MAX_STEPS} steps for q={q.q}")

    root = 0.5 * (lo + hi)
    residual = f(root)
    if abs(residual) > _ROOT_RESIDUAL_TOL:
        raise BracketFailure(
            f"root residual {residual:.3e} exceeds {_ROOT_RESIDUAL_TOL} for q={q.q}"
        )
    return PsiRoot(q=q, root=root, bracket_low=lo, bracket_high=hi, residual=residual)
