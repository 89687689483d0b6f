"""The q-special functions: ln Gamma_q, Gamma_q, psi_q, its derivatives,
the q-Euler constant, and the unique positive root of psi_q.

Gamma_q is only ever computed through its logarithm; the raw product over-
and underflows quickly and every downstream inequality works in log space
anyway.  Arguments x <= 0 are rejected: no analytic continuation.

ln Gamma_q computes F(x) - F(y), F(t) = -sum_k ln(1-q^(t+k)), so
ln_gamma_q(x, q, y=y) is the log ratio ln Gamma_q(x) - ln Gamma_q(y) in one
sum (y = 1 by default, Gamma_q(1) = 1), exactly antisymmetric in x, y.  It
takes N recurrence steps for the smaller argument y and one of two tails,
split at s = -ln q = _QSERIES_S = 0.49 (q = 0.6126).  From there up in s,
the q-series (Askey 1978) sum_k u^k (e^(ka) - 1) / (k (1-q^k)), u =
q^(y+N) and a = (x-y) ln q, after N = max(0, ceil(sqrt(Lambda/s) - y))
steps, Lambda = -ln(REL_TOL/1024), the balance psi_q's K strikes; its
terms fall by u or faster, which bounds its remainder.  Below it, Moak's
q-Stirling expansion (Moak 1984, Rocky Mountain J. Math. 14): the
recurrence up to T >= 10, N = max(0, ceil(10 - y)) steps, as
classical._shift, plus Euler-Maclaurin for the tail, the scheme
classical.py uses at q = 1, its corrections alone from y = 10 on, and its
remainder bounded by the larger first omitted term of the two tails (DLMF
2.10(i)).  Either side sums at most 17 terms at every q.
psi_q and every psi_q^(m) are one routine, _psi_series, and psi_q is
split at the same s.  Below it, psi_q takes the derivative of ln Gamma_q's
q-Stirling form: N = max(0, ceil(10 - x)) recurrence steps, then
ln [T]_q + h'(T)/2 and at most seven corrections at T = x + N, at most 17
terms at every q, bounded by the first omitted correction.  From it up in
s, and for every psi_q^(m) at every q: K = max(0, ceil(sqrt(L/s) - x))
recurrence steps (s = -ln q, L = -ln REL_TOL; DLMF 5.5.2 with q) and the
rest as the geometric n-series at x + K, at most about 2 sqrt(30/(1-q))
terms, with the bound the series engine certifies from the summands' own
ratio (see ``qcore.sum_geometric_decay``).  psi_q's head takes one expm1
per term, and its q-Stirling tail one exp, one expm1 and one log;
psi_q^(m)'s head and the n-series tails take each power of q from the
one before, with a fixed number of exp and expm1 calls per call.  ln
Gamma_q takes one log for the k = 0 recurrence term and one for the
product of the others, at most nine; the Eulerian polynomials A_0..A_16
of psi_q^(m)'s head are one table built at import, and the gamma vectors
of the corrections' A_1..A_15 are peeled from it in integers (every A_m
is gamma-positive, A_m(u) = sum_k g_k u^k (1+u)^(m-1-2k) with g_k >= 0:
Foata & Schutzenberger 1970).  From these, all the generated code is
compiled at import in one exec: the corrections of ln Gamma_q as one
unrolled function, each A_2j taken as (1+u)^(2j-1) times a polynomial of
j coefficients in t = u/(1+u)^2, the (1+u) powers folded into the power
of r the corrections carry, those of psi_q as another from the same
generator, each A_(2j+1) as (1+u)^(2j) times a polynomial of j + 1
coefficients, and psi_q^(m)'s head term u A_m(u) r^(m+1) for each
m <= 16 in its Eulerian form (its u changes every term, so no power can
be folded).  Every polynomial is straight-line Horner code with
the multiplies and adds of a loop over its coefficients in the same
order, so the values are those of the loop, bit for bit.
psi_q_root certifies psi_q's zero by the residual at a centre and a
lower bound on psi_q': one psi_q call at a fitted guess for q from 0.05
up, and Newton steps from the guess where that call declines.  Results
are Evaluation and PsiRoot records, immutable NamedTuples that unpack,
index and compare equal to plain tuples (see ``qcore``).
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Optional

from .constants import BERNOULLI, MAX_EXP
from .errors import BracketFailure, DomainError, NonConvergence, Overflow
from .qcore import (MAX_TERMS, REL_TOL, Evaluation, QParam, cap_error, new_record, require_positive,
                    sum_geometric_decay)


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


# A_0 .. A_16 as floats (exact: every coefficient is below 2^53), built
# once for psi_q_m's head terms and the q-Stirling corrections' gamma
# vectors.  Each A_m is a palindrome, so Horner's rule may take it in either
# order.
_EULERIAN = tuple(tuple(float(c) for c in _eulerian(m)) for m in range(17))


def _gamma_vector(m: int) -> list[int]:
    """The gamma vector of A_m, 1 <= m <= 16: the integers g_k >= 0 with
    A_m(u) = sum_k g_k u^k (1+u)^(m-1-2k), k <= (m-1)/2 (A_m is gamma-
    positive: Foata & Schutzenberger 1970, Theorie geometrique des
    polynomes euleriens, LNM 138).  Peeled from _EULERIAN[m] in integers:
    g_k is the coefficient of u^k left after the terms below k, and
    subtracting g_k u^k (1+u)^(m-1-2k) clears it (and, A_m being a
    palindrome, that of u^(m-1-k))."""
    rest = [int(c) for c in _EULERIAN[m]]
    gammas = []
    for k in range((m + 1) // 2):
        g = rest[k]
        gammas.append(g)
        width = m - 1 - 2 * k
        for i in range(width + 1):
            rest[k + i] -= g * math.comb(width, i)
    return gammas


_ZETA2 = math.pi**2 / 6.0
_LN2 = math.log(2.0)
_EPS = 2.0**-53


def _horner(coeffs: tuple, u: str) -> str:
    """The polynomial with ``coeffs`` at ``u`` as one straight-line Horner
    expression ((c_0 u + c_1) u + c_2) ... + c_last: the steps a = a u + c
    of a loop over ``coeffs`` from a = 0, in their order, but for the
    first, 0 u + c_0, which is exactly c_0 (u is finite)."""
    expr = repr(coeffs[0])
    for c in coeffs[1:]:
        expr = f"({expr}) * {u} + {c!r}"
    return expr


# q-Stirling corrections, j = 1..8: B_2j/(2j)! s^(2j-1) Li_{2-2j}(u) for
# ln Gamma_q and B_2j/(2j)! s^(2j) Li_{1-2j}(u) for psi_q, with
# Li_{1-k}(u) = u A_(k-1)(u) / (1-u)^k.  At most _EM_TERMS = 7 are added,
# and the eighth bounds the remainder: ln Gamma_q's is at most 4.56e-17 at
# every q and T >= 10 (largest at s = 1.49, T = 10; it falls as T rises),
# and psi_q's at most 4.44e-17 below s = _QSERIES_S (largest at T = 10,
# where it stays within 1e-6 of B_16 / (16 T^16), its limit as s -> 0),
# each below the least stop REL_TOL / 1024, so no call reaches a ninth.
_EM_TERMS = 7

# The gamma vectors of A_0 .. A_15, by order: G_0 = 1 (A_0 = 1), then
# _gamma_vector(m), as floats (exact: every entry is below 2^53).  ln
# Gamma_q's corrections read the even orders and psi_q's the odd ones.
_EM_GAMMA = ((1.0,),) + tuple(tuple(float(g) for g in _gamma_vector(m)) for m in range(1, 2 * _EM_TERMS + 2))


def _ladder_source(name: str, sides: str, order: int) -> str:
    """Source of a q-Stirling correction ladder, unrolled:
    name(value, tol, u.., p.., r..) -> (value, bound, j), with one u, p and
    r for each side in ``sides``, step j taking c p A_(2j+order)(u) at each
    side, c = B_(2j+2) / (2j+2)!, and returning the larger of them in size
    as the bound, before it adds them to value, when that is at most tol;
    step _EM_TERMS always returns.

      * ln Gamma_q: em_ladder, sides "xy" and order 0.  Step j takes
        c u r^(2j+1) A_2j(u), r = s / (1-u), from p = u r and r^2, and adds
        cx - cy to value.
      * psi_q: em_psi_ladder, side "x" and order 1.  Step j takes
        c u r^(2j+2) A_(2j+1)(u) from p = u r^2 and r^2, the derivative of
        the step above, and subtracts it from value.

    Step 0 takes A_order = 1.  The later steps take A_m in its gamma form
    (see _gamma_vector), A_m(u) = (1+u)^(m-1) G_m(t), t = u / (1+u)^2 in
    [0, 1/4] and G_m(t) = sum_k g_k t^k, j positive coefficients (j + 1 at
    odd m) where A_m has m: after step 0 the ladder forms a = 1 + u and
    t = u / a^2 once, multiplies p by r a^(1+order) and r by a^2, and after
    each later step p by r, so that step j holds p = u r^(2j+1+order)
    a^(2j-1+order) and takes c p G_m(t), G_m in straight-line Horner code
    (see _horner) from its top coefficient."""
    us, ps, rs = ([f"{v}{side}" for side in sides] for v in "upr")
    lines = [f"def {name}(value, tol, {', '.join(us + ps + rs)}):"]
    for j, b in enumerate(BERNOULLI[:_EM_TERMS + 1]):
        coef = b / math.factorial(2 * j + 2)
        poly = _EM_GAMMA[2 * j + order][::-1]
        lines += [f"    c{v} = ({coef!r}) * p{v} * ({_horner(poly, 't' + v)})" for v in sides]
        # The largest |c|: each c has the sign of coef (or is zero).
        if len(sides) == 1:
            bound = "cx" if coef > 0.0 else "-cx"
        else:
            bound = "cx if cx > cy else cy" if coef > 0.0 else "-cx if cx < cy else -cy"
        if j == _EM_TERMS:
            lines.append(f"    return value, {bound}, {j}")
            break
        lines += [f"    bound = {bound}",
                  "    if bound <= tol:",
                  f"        return value, bound, {j}",
                  "    value += cx - cy" if len(sides) == 2 else "    value -= cx"]
        if j == 0:
            a_power = "a" if order == 0 else "aa"
            lines += [f"    a{v} = 1.0 + u{v}" for v in sides]
            lines += [f"    aa{v} = a{v} * a{v}" for v in sides]
            lines += [f"    t{v} = u{v} / aa{v}" for v in sides]
            lines += [f"    p{v} *= r{v} * {a_power}{v}" for v in sides]
            lines += [f"    r{v} *= aa{v}" for v in sides]
        else:
            lines += [f"    p{v} *= r{v}" for v in sides]
    return "\n".join(lines) + "\n"


def _loop_head(m: int) -> Callable[[float, float], float]:
    """(u, r) -> psi_q^(m)'s head term u A_m(u) r^(m+1), r = ln q / (1-u),
    for an order above the table: A_m built now and evaluated by a loop
    over its coefficients, and the product taken as
    ((u A_m(u))^(1/(m+1)) r)^(m+1).  Apart, r^(m+1) underflows to 0 once
    (m+1) ln(x+k) passes about 745 while u A_m(u), near m!, stays finite
    (from about m = 48 as q -> 1); the root keeps both in the one base.
    u A_m(u) rounds to inf at u near 1 from m = 171, and from m = 172
    converting A_m's coefficients raises OverflowError: either way the
    call raises Overflow."""
    coeffs = _eulerian(m)
    power = m + 1
    root = 1.0 / power

    def head(u: float, r: float) -> float:
        a = 0.0
        for c in coeffs:
            a = a * u + c
        return ((u * a) ** root * r) ** power

    return head


# The generated code, compiled in one exec at import: em_ladder and
# em_psi_ladder, and for each m = 1..16 the kernel (u, r) -> u A_m(u)
# r^(m+1) of psi_q_m's head terms, with the operations of a loop over A_m's
# coefficients in the same order.  A head term has x + k < sqrt(L/s) < 5.5e6 (q < 1 - 1e-12) and
# |r| >= 1 / (x + k), so up to m = 16 r^(m+1) stays above 2.8e-115 and is
# taken on its own.  _LI_HEADS[m] is that kernel; an integer-valued float
# m finds its entry too.
_HEAD_ORDERS = len(_EULERIAN) - 1
_GENERATED: dict = {}
exec(
    _ladder_source("em_ladder", "xy", 0) + _ladder_source("em_psi_ladder", "x", 1) + "".join(
        f"def li_head_{m}(u, r):\n    return u * ({_horner(_EULERIAN[m], 'u')}) * r ** {m + 1}\n" for m in range(1, _HEAD_ORDERS + 1)
    ),
    _GENERATED,
)
_em_ladder = _GENERATED["em_ladder"]
_em_psi_ladder = _GENERATED["em_psi_ladder"]
_LI_HEADS = {m: _GENERATED[f"li_head_{m}"] for m in range(1, _HEAD_ORDERS + 1)}

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
_EM_TOL = REL_TOL * _EM_STOP

# Lambda = -ln _EM_TOL, about 36.87: the q-series' head of N' recurrence
# pairs and its tail at ratio u = q^(y+N') balance at N' = ceil(sqrt(Lambda/s)
# - y), as psi_q's K does with REL_TOL in place of the corrections' stop.
_QSERIES_LOG = -math.log(_EM_TOL)

# ln_gamma_q takes the q-series from s = -ln q >= _QSERIES_S (q <= 0.6126).
# After N' pairs its k-th term is at most u^k / (k (1-q^k)), u = q^(y+N'),
# and it adds terms up to the first whose size over 1 - u is at most
# _EM_TOL, the least tol.  N' plus that k, over every y > 0 (the most at
# y -> 0, where N' = ceil(c) and u = q^ceil(c), c = sqrt(Lambda/s)), is at
# most 17 from s = 0.4836 on, and 18 just below it.  0.49 is that least s to
# two digits, so neither side of the split takes more than 17 terms.
_QSERIES_S = 0.49


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

    The z-series sum_j B_2j z^(2j+1) / (2j+1)!, what Li_2(u) adds to
    z - z^2/4, is summed until its next term is below 2^-53 z
    (Li_2(u) > 0.8 z).  Both are summed in one loop, of z_a = zy and
    z_b = zx, or z_a = zx alone (z_b = 0) when y takes the w-series:
    z_b <= z_a, so the z_b series stops first and the loop stops with z_a's.
    """
    wy = s * ty
    if ln_s is not None and s * tx <= 1.0:
        d = tx - ty
        tails = tx * _li2_w(s * tx) - ty * _li2_w(wy)
        return d * (math.log(tx) - 1.0 - 0.25 * s * (tx + ty)) + ty * math.log1p(d / ty) + tails
    both_z = ln_s is None or wy > _LN2
    za, zb = (zy, zx) if both_z else (zx, 0.0)
    pa, pb, va, vb = za, zb, za * za, zb * zb
    # |term| <= tol as two comparisons, which decide the same way, NaN too.
    tol_a, tol_b = _EPS * za, _EPS * zb
    neg_tol_a, neg_tol_b = -tol_a, -tol_b
    acc_a = acc_b = 0.0
    for c in _LI2_Z:
        pa *= va
        term = c * pa
        if neg_tol_a <= term <= tol_a:
            break
        acc_a += term
        pb *= vb
        term = c * pb
        if neg_tol_b <= term <= tol_b:
            pb = 0.0  # stopped: the later terms are 0
        else:
            acc_b += term
    if both_z:
        diff = (dz * (1.0 - 0.25 * (zx + zy)) + (acc_b - acc_a)) / s
        return diff if ln_s is None else diff - (tx - ty) * ln_s
    ret_x = (zx - 0.25 * zx * zx + acc_a - _ZETA2) / s - tx * ln_s
    return ret_x - ty * (math.log(ty) - 1.0 - 0.25 * wy + _li2_w(wy))


def ln_gamma_q(x: float, q: QParam, *, y: float = 1.0) -> Evaluation:
    """ln Gamma_q(x) - ln Gamma_q(y) = (y-x) ln(1-q) + F(x) - F(y),
    F(t) = sum_{k>=0} h(t+k), h(t) = -ln(1-q^t), as one sum; Gamma_q(1) = 1,
    so the default y = 1 gives ln Gamma_q(x).

    The arguments are ordered so that x >= y, and a swap negates the result
    at the end: ln_gamma_q(a, q, y=b) == -ln_gamma_q(b, q, y=a) exactly,
    with the same bound and terms, and y == x gives exactly 0.

    With s = -ln q, F(x) - F(y) is a head of N recurrence pairs for the
    smaller argument y and a tail, taken one of two ways, by s alone:
      * s >= _QSERIES_S (q <= 0.6126): the q-series (Askey 1978),
        N = max(0, ceil(sqrt(Lambda/s) - y)), Lambda = -ln(REL_TOL/1024)
        (see _QSERIES_LOG), and the tail
            sum_{k>=1} u^k (e^(ka) - 1) / (k (1-q^k)),
        u = q^(y+N) and a = (x-y) ln q, each -ln(1-q^(t+j)) expanded in
        powers of q^(t+j);
      * below it, Moak's q-Stirling expansion (Moak 1984): N = max(0,
        ceil(10 - y)), as classical._shift, and Euler-Maclaurin tails.
    Each side takes at most 17 terms at every q of its own, and each is
    the faster of the two there.

    The head is the same code on both sides.  Its N terms are paired as
    ratios (1-q^(y+k)) / (1-q^(x+k)), every 1 - q^t being -expm1(-s t), or
    s t below _TINY_W, so that a value near the pole at 0 keeps its digits.
    At N >= 1 the k = 0 ratio takes a log of its own and the k >= 1 ratios
    one log of their product (empty at N = 1, adding log 1 = 0 exactly); at
    N = 0 there are none.  Each of the at most nine k >= 1 ratios (N <= 10
    on both sides) lies in [1 - q^k, 1], and 1 - q^k >= k s / (1 + k s),
    which rises with s, so their product is at least 9! s^9 / (1 + 9 s)^9:
    above 3.6e-103 at every q below 1 - 1e-12, and above 9e-139 at every
    q < 1 (s >= 2^-53), in the normal range.  The k = 0 ratio, about
    s y / (1-q^x) for small s y, stays out of the product, which it could
    take below the range (at y = 1e-280, x = 1e12 and q = 1 - 1e-9).

    q-Stirling: each F is its head plus the Euler-Maclaurin tail at
    T = x + N (resp. y + N), so that both tails start at T >= 10.  Below
    y = 10, N is taken as 10 - floor(y), that ceiling exactly: the ceiling
    of the rounded 10 - y is 9 at y = 1 - 2^-53, which would leave T below
    10:
        Li_2(e^(-sT)) / s + h(T)/2
            + sum_j B_2j/(2j)! s^(2j-1) Li_{2-2j}(e^(-sT)).
    The two integrals are differenced by _li2_tail_difference, in which the
    parts that grow with T cancel in closed form; for q >= 2^(-1/10) it
    leaves out (tx - ty) ln s, which joins (y-x) ln(1-q) as
    (y-x) ln((1-q)/s).  h(tx) - h(ty) is formed from q^tx - q^ty, and each
    tail is moved from the rounded x + N (resp. y + N) to the exact one by
    its slope.  So close arguments keep their digits, and no F(1) of two
    ln Gamma_q values has to cancel in a ratio.

    h is completely monotone, so the remainder after any number of
    corrections has the sign of the first omitted one, the sign of B_2j,
    and is bounded by it (DLMF 2.10(i)); the two remainders have one sign,
    so the larger of the two first omitted corrections bounds their
    difference.  Corrections are added until that bound is at most
    REL_TOL * max(1, |value|) / 1024 (an absolute error on a log is a
    relative one on the ratio), and at most seven of them: the eighth is
    below that stop at every q (see _EM_TERMS), so a call takes at most 17
    terms.  The corrections run as one function generated at import (see
    _ladder_source), each A_{2j-2} after A_0 = 1, at u = q^tx and at
    q^ty, in its gamma form (Foata & Schutzenberger 1970): (1+u)^(2j-3)
    times a polynomial of j - 1 positive coefficients in t = u/(1+u)^2,
    the (1+u) power folded into the running power of s/(1-u), so a step
    takes half the multiplies and adds of A_{2j-2} itself.  Each polynomial
    is a straight-line Horner expression: the steps of a loop over its
    coefficients, in their order, so the values, bounds and terms are those
    of that loop bit for bit.  ``error_estimate`` is that bound; the Li_2
    series are summed to rounding and, like rounding, are left out of it.
    ``terms_used`` is N plus the corrections added.

    q-series: u is q^y q^N, a product of two exps, and a is formed from
    x - y, so no rounded y + N enters the tail and no slope move is needed.
    u^k, 1 - q^k (from q and 1 - q) and e^(ka) - 1 (from expm1(a)) are
    each carried from the one before as a sum or product of terms of one
    sign, as sum_geometric_decay carries its powers.  Every term t_k is
    <= 0, and |t_(k+1)| <= u |t_k|, since (1 - e^(-kb)) / k falls with k
    (b = -a >= 0) and 1 - q^k rises, so the tail from t_k on is at most
    |t_k| / (1-u).  Terms are added up to and including the first t_k whose
    |t_k| / (1-u) is at most the corrections' stop, REL_TOL * max(1,
    |value|) / 1024 of the value before the tail, which leaves at most
    u |t_k| / (1-u), u times that stop or less (u = q^(y+N) <=
    exp(-sqrt(Lambda s)) < 0.015): the omitted tail has one sign, so one
    left near the stop would move every value the same way, and the margins
    of the strict inequalities with it.  ``error_estimate`` is that bound
    on the omitted tail (it leaves out rounding, and the head is exact but
    for rounding), and ``terms_used`` is N plus the terms added, at most 17
    (see _QSERIES_S).  So no call on either side reaches the term cap
    MAX_TERMS.
    """
    require_positive(x)
    require_positive(y, "y")
    swapped = y > x
    if swapped:
        x, y = y, x
    expm1 = math.expm1
    log = math.log
    ln_q = q.ln_q
    s = -ln_q
    qseries = s >= _QSERIES_S
    if qseries:
        n = math.ceil(math.sqrt(_QSERIES_LOG / s) - y)
        if n < 0:
            n = 0
    else:
        n = 10 - math.floor(y) if y < 10.0 else 0
    if s * 10.0 <= _LN2:
        ln_s = log(s)
        value = (y - x) * log((1.0 - q.q) / s)
    else:
        ln_s = None
        value = (y - x) * math.log1p(-q.q)

    if n:
        if s * y < _TINY_W:
            # The k = 0 pair is ln(s y / (1-q^x)), with 1 - q^x = s x if tiny.
            value += log(y / x) if s * x < _TINY_W else log(y) - (log(-expm1(-s * x)) - log(s))
        else:
            value += log(expm1(ln_q * y) / expm1(ln_q * x))
        prod = 1.0
        for k in range(1, n):
            prod *= expm1(ln_q * (y + k)) / expm1(ln_q * (x + k))
        value += log(prod)

    if qseries:
        # t_k = u^k (e^(ka) - 1) / (k (1-q^k)), u = q^(y+N) and a = (x-y) ln q,
        # with u^k, 1 - q^k and e^(ka) - 1 = (e^((k-1)a) - 1) e^a + (e^a - 1)
        # each from the one before: no term sums two of opposite sign.
        tol = _EM_TOL * (value if value > 1.0 else -value if value < -1.0 else 1.0)
        u = math.exp(y * ln_q) * math.exp(n * ln_q)
        em1 = expm1((x - y) * ln_q)
        e = 1.0 + em1
        base = q.q
        one_minus_qk = 1.0 - base
        rise = one_minus_qk * base
        one_minus_u = 1.0 - u
        power, em, j = u, em1, 1
        term = total = power * em / one_minus_qk
        bound = -term / one_minus_u
        while bound > tol:
            j += 1
            power *= u
            em = em * e + em1
            one_minus_qk += rise
            rise *= base
            term = power * em / (j * one_minus_qk)
            total += term
            bound = -term / one_minus_u
        value += total
        if swapped:
            value = -value
        # The tail after t_j is at most u |t_j| / (1-u): at most u tol.
        return new_record(Evaluation, (value, u * bound, n + j))

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

    # max(1, |value|) by comparisons, 1 for a NaN value as max takes it.
    tol = _EM_TOL * (value if value > 1.0 else -value if value < -1.0 else 1.0)
    rx, ry = s / dx, s / dy
    px, py = ux * rx, uy * ry  # u r^(2j-1) at j = 1
    rx *= rx
    ry *= ry
    value, bound, j = _em_ladder(value, tol, ux, uy, px, py, rx, ry)
    if swapped:
        value = -value
    return new_record(Evaluation, (value, bound, n + j))


def _exp_evaluation(ln_ev: Evaluation, label: str) -> Evaluation:
    """exp of a log evaluation, bound scaled by the value; Overflow naming
    ``label`` where math.exp overflows, past ln of the largest double."""
    try:
        value = math.exp(ln_ev.value)
    except OverflowError:
        raise Overflow(f"{label} exceeds the double range (ln = {ln_ev.value:.6g})") from None
    return new_record(Evaluation, (value, abs(value) * ln_ev.error_estimate, ln_ev.terms_used))


def gamma_q(x: float, q: QParam) -> Evaluation:
    """Gamma_q(x) = exp(ln Gamma_q(x)); truncation bound scaled by the value."""
    return _exp_evaluation(ln_gamma_q(x, q), f"Gamma_q({x}, q={q.q})")


# -ln REL_TOL: a tail at ratio q^y falls below REL_TOL of its first term
# after about this / (s y) terms, s = -ln q.
_TAIL_LOG = -math.log(REL_TOL)

# The least positive double: _psi_series's range test floors s x at it.
_SX_FLOOR = math.ulp(0.0)

_E = math.e


def _psi_series(m: int, x: float, q: QParam) -> Evaluation:
    """psi_q (m = 0) and its m-th derivative (m >= 1, checked by psi_q_m),
        [m = 0] (-ln(1-q)) + (ln q)^(m+1) sum_{n>=1} n^m q^(nx) / (1-q^n),
    the k-form (ln q) sum_{k>=0} q^(x+k) / (1-q^(x+k)) (plus -ln(1-q) at
    m = 0) differentiated m times: a head of recurrence steps along k and
    one of two tails, split for psi_q at s = -ln q = _QSERIES_S, as
    ln_gamma_q is.

    n-series (psi_q from s >= _QSERIES_S, q <= 0.6126, and psi_q^(m) at
    every q).  Expanding 1/(1-q^n) = sum_{k>=0} q^(nk) makes the sum the
    double series sum_{n>=1, k>=0} n^m q^(n(x+k)).  Its first K terms along
    k, the recurrence step taken K times, are summed directly and the rest
    along n at y = x + K:
        (ln q)^(m+1) [sum_{k<K} Li_{-m}(u_k) + sum_{n>=1} n^m q^(ny) / (1-q^n)],
    u_k = q^(x+k), Li_{-m}(u) = u A_m(u) / (1-u)^(m+1) and A_m the Eulerian
    polynomial (A_0 = 1).  K = max(0, ceil(sqrt(L/s) - x)), s = -ln q and
    L = -ln REL_TOL, so that the head and the tail each take at most about
    sqrt(L/s) terms, about 2 sqrt(30/(1-q)) in all as q -> 1.

    q-Stirling (psi_q below s = _QSERIES_S, q > 0.6126).  The derivative of
    ln_gamma_q's form: with h(t) = -ln(1-q^t), N = max(0, ceil(10 - x)),
    taken as 10 - floor(x) below 10 (see ln_gamma_q), and T = x + N >= 10,
        psi_q(x) = sum_{k<N} h'(x+k) + ln [T]_q + h'(T)/2
                   - sum_j B_2j/(2j)! s^(2j) Li_{1-2j}(q^T),
    h'(t) = -s / expm1(s t) and Li_{1-2j}(u) = u A_(2j-1)(u) / (1-u)^(2j):
    Euler-Maclaurin for sum_{k>=0} h'(T+k), whose integral, ln(1-q^T),
    joins -ln(1-q) as ln [T]_q = ln((1-q^T) / (1-q)), one log of a ratio.
    -h' is completely monotone, so the remainder after any number of
    corrections has the sign of the first omitted one and is bounded by it
    (DLMF 2.10(i)).  Corrections are added until that bound is at most
    REL_TOL * max(1, |value|) / 1024, the stop of ln_gamma_q's, and at most
    seven of them: the eighth is below that stop at every q of this side
    (see _EM_TERMS).  They run as one function generated at import,
    em_psi_ladder (see _ladder_source), each A_(2j-1) in its gamma form.
    ``error_estimate`` is that bound (it leaves out rounding, as the
    n-series side does), and ``terms_used`` is N plus the corrections
    added, at most 17 at every q.

    Each head term keeps (ln q)^(m+1) inside, so that a value near the pole
    at 0 stays in range as long as the result does.  At m = 0 it is
    ln q / expm1(s (x+k)), one expm1 per term, the same loop on both sides.
    At m >= 1 it is the kernel _LI_HEADS[m](u_k, ln q / (1-u_k)), or
    _loop_head's above m = 16: u_0 = exp(x ln q) and 1 - u_0 =
    -expm1(x ln q) keep the digits of x near 0, and from there u_(k+1) =
    u_k q and 1 - u_(k+1) = (1 - u_k) + u_k (1 - q), a sum of positive
    terms, with q and 1 - q taken once, so a head makes 4 exp and expm1
    calls in all.

    The n-series tail is sum_geometric_decay at y, which carries 1 - q^n as
    a sum of positive terms and certifies its own bound (see there); at
    m >= 1 it takes s^(m+1) into each summand through scale = s^((m+1)/m),
    so that no factor leaves the range before the summand does.  The value
    is offset + (head + factor tail), with (offset, factor) = (-ln(1-q),
    ln q) and the tail's bound times s at m = 0, and (0, (-1)^(m+1), the
    sign of (ln q)^(m+1)) and the tail's bound as it is at m >= 1.  The
    engine stops only where its ratio bound (1+1/n)^m q^y is below 1, so
    summands that rise to a peak near n = m / (s y) from below the double
    range or ABS_TOL are summed through it: at m = 2100, x = 1000, q = 0.5
    the sum is about -3.14e-236.

    When e x < m, s^(m+1) n^m q^(nx), below |psi_q^(m)(x)| at every
    n >= 1, is first checked against the range at n = max(1, round(m /
    (s x))), near its largest; when e x >= m (at m = 0 always) its log is
    at most ln s <= ln 745 at every n, far inside the range, and the check
    is skipped.  A value, head term, summand or sum beyond the double range
    raises Overflow naming psi_q(x, q) or psi_q_m(m, x, q), and so does an
    s x that underflows to 0 in psi_q's first head term (x = 5e-324); so
    does a head whose u A_m(u) leaves the doubles, from m = 171 at u near
    1, and at every u from m = 172, where A_m's coefficients do.

    On the n-series side the head terms count against the term cap
    MAX_TERMS, read from this module at each call, and sum_geometric_decay
    takes what they leave of it, MAX_TERMS - K, as a plain count.  The cap
    binds only near q = 1, which only psi_q^(m) reaches: at x = 1.5,
    psi_q_m(1, ...) stops in the head at q = 1 - 1e-11 and in the tail at
    1 - 5e-11.  A cap in the head raises NonConvergence with the head's
    partial value (plus the offset) and the bound |next head term| / (1-q)
    on the rest of the k-form, which falls by q per term; a cap in the
    tail, with the partial value of the whole and the tail's bound, scaled
    as above.  ``terms_used`` is K plus the tail terms.  The q-Stirling
    side never reads MAX_TERMS.
    """
    require_positive(x)
    ln_q = q.ln_q
    s = -ln_q
    stirling = not m and s < _QSERIES_S
    if stirling:
        # N = ceil(10 - x), as 10 - floor(x) below 10 (see ln_gamma_q), and
        # no cap: the head and the corrections take at most 17 terms.
        k_end = 10 - math.floor(x) if x < 10.0 else 0
        max_terms = math.inf
    else:
        max_terms = MAX_TERMS
        # K, and the min and max, written out as comparisons: the calls cost
        # more than this hot path's arithmetic.
        k_end = math.ceil(math.sqrt(_TAIL_LOG / s) - x)
        if k_end < 0:
            k_end = 0
    limit = max_terms if max_terms < k_end else k_end
    # Each head term is added one step late, so that a cap in the head
    # leaves the first term it cut in ``term``.
    head_steps = limit + 1 if limit == max_terms else limit

    value = term = 0.0
    try:
        if m:
            # Over real n > 0, (m+1) ln s + m ln n - n s x peaks at
            # n = m / (s x), at ln s + m ln(m / (e x)), and ln s <= ln 745
            # (q >= 5e-324).  So where e x >= m the test cannot exceed
            # MAX_EXP, and is skipped: its rounding stays far below the gap
            # of 700 for any m below 1e12.
            if m > _E * x:
                # Capped, so that an s x that underflows cannot make n infinite.
                n = max(1, round(min(m / max(s * x, _SX_FLOOR), 1e300)))
                if (m + 1) * math.log(s) + m * math.log(n) - n * s * x > MAX_EXP:
                    raise OverflowError
            offset, factor, bound_scale = 0.0, (1.0 if m % 2 else -1.0), 1.0
            scale = s * s ** (1.0 / m)  # s^((m+1)/m)
            if m <= _HEAD_ORDERS:
                head = _LI_HEADS[m]
            else:
                head = _loop_head(int(m)) if k_end else None
            if limit:
                base = math.exp(ln_q)
                gap = -math.expm1(ln_q)
                u = math.exp(x * ln_q)
                one_minus_u = -math.expm1(x * ln_q)
            for _ in range(head_steps):
                value += term
                term = head(u, ln_q / one_minus_u)
                one_minus_u += u * gap
                u *= base
        else:
            if not stirling:
                offset, factor, bound_scale, scale = -math.log1p(-q.q), ln_q, s, 1.0
            expm1 = math.expm1
            for k in range(head_steps):
                value += term
                term = ln_q / expm1(s * (x + k))
        if limit < max_terms:
            value += term
            if math.isfinite(value):
                if stirling:
                    # The tail at T = x + N: ln [T]_q + h'(T)/2, h'(T) = -s u / (1-u)
                    # with u = q^T, and the corrections, with r = s / (1-u).
                    st = s * (x + k_end)
                    u = math.exp(-st)
                    one_minus_u = -expm1(-st)
                    r = s / one_minus_u
                    value += math.log(one_minus_u / (1.0 - q.q)) - 0.5 * u * r
                    # max(1, |value|) by comparisons, 1 for a NaN value as max takes it.
                    tol = _EM_TOL * (value if value > 1.0 else -value if value < -1.0 else 1.0)
                    r *= r
                    value, bound, j = _em_psi_ladder(value, tol, u, u * r, r)
                else:
                    tail = sum_geometric_decay((x + k_end) * ln_q, ln_q, max_terms - limit, m, scale)
                    value = offset + (value + factor * tail.value)
    except NonConvergence as exc:
        partial = offset + (value + factor * exc.partial_value)
        raise cap_error(max_terms, partial, bound_scale * exc.error_estimate, max_terms) from None
    except (ZeroDivisionError, OverflowError):
        value = math.inf
    if not math.isfinite(value):
        name = f"psi_q_m{(m, x, q.q)!r}" if m else f"psi_q{(x, q.q)!r}"
        raise Overflow(f"{name} exceeds the double range")
    if limit == max_terms:
        raise cap_error(max_terms, offset + value, abs(term) / (1.0 - q.q), limit)
    if stirling:
        return new_record(Evaluation, (value, bound, k_end + j))
    return new_record(Evaluation, (value, bound_scale * tail.error_estimate, limit + tail.terms_used))


def psi_q(x: float, q: QParam) -> Evaluation:
    """psi_q(x) = -ln(1-q) + (ln q) sum_{n>=1} q^(nx) / (1-q^n), as
    _psi_series at m = 0.  Below s = -ln q = _QSERIES_S (q > 0.6126), the
    q-Stirling form: N <= 10 recurrence terms and at most seven
    corrections, with N + 2 exp and expm1 calls and one log, at most 17
    terms at every q; ``error_estimate`` is the first omitted correction.
    From it on, the n-series: K head terms and the tail, with K + 3 exp and
    expm1 calls and one log1p; ``error_estimate`` is s times the tail's
    certified bound.  ``terms_used`` is the head terms plus the corrections
    or the tail terms.  Raises DomainError unless x is finite and positive,
    and Overflow for a value beyond the doubles.  No call reaches the term
    cap MAX_TERMS: the n-series side takes at most 16 terms (K <= 8), and
    the q-Stirling side does not read it.
    """
    return _psi_series(0, x, q)


def psi_q_m(m: int, x: float, q: QParam) -> Evaluation:
    """m-th derivative of psi_q: (ln q)^(m+1) sum_{n>=1} n^m q^(nx) / (1-q^n),
    as _psi_series at m.  Its sign is that of (ln q)^(m+1): positive for
    odd m, negative for even m.  m must be an integer >= 1 (an
    integer-valued float too, but not a bool), else DomainError.  Bound,
    terms and errors as for psi_q, with the tail's bound as it is, and
    Overflow also where a head term's u A_m(u) leaves the doubles, from
    m = 171 (psi_q_m(180, 100.0, QParam(0.9999)) raises it, though the
    value is about -2.41e-33).
    """
    # The range test comes first, and rejects NaN and inf, which int() cannot take.
    if isinstance(m, bool) or not 1 <= m < math.inf or m != int(m):
        raise DomainError(f"m must be an integer >= 1, got {m!r}")
    return _psi_series(m, x, q)


def euler_gamma_q(q: QParam) -> Evaluation:
    """q-extension of the Euler-Mascheroni constant: -psi_q(1)."""
    ev = psi_q(1.0, q)
    return new_record(Evaluation, (-ev.value, ev.error_estimate, ev.terms_used))


class PsiRoot(NamedTuple):
    """The unique positive zero of psi_q with its certifying bracket."""

    root: float
    bracket_low: float
    bracket_high: float
    residual: float


_ROOT_RESIDUAL_TOL = 1e-10
# The most centres a solve evaluates: twice the most any solve took, 4 over
# 5,000 q log-uniform in [least normal, 0.05]; from 0.05 up a solve takes 1.
_ROOT_CENTRES = 8

# The root guess g(q) = sum_k c_k T_k(t), a Chebyshev series of degree 22
# in t = 2 s / s_max - 1, s = -ln q and s_max = -ln 0.05, so q in
# [0.05, 1) maps to t in (-1, 1].  Its coefficients, highest degree first as
# Clenshaw's recurrence takes them, fit the zeros of psi_q, each bisected to
# adjacent doubles, at 400 Chebyshev-Gauss nodes in s over [0, s_max] and
# 300 q with 1 - q log-spaced over [1e-5, 0.05], with the least largest
# error among the iterates of Lawson's iteratively reweighted least squares
# (here its first, plain least squares).  That error is 1.0e-14 there and
# at most 1.1e-14 over 9,400 other q in [0.05, 1 - 1e-5], 7,200 of them
# log-uniform in 1 - q, and at every 1 - q tried from 1e-5 down to 1.1e-12
# (psi_q's q-Stirling zero is a smooth function of s up to q = 1).  When
# psi_q changes, refit with scripts/fit_root_guess.py, which prints this
# tuple and the worst ratio of |psi_q| at the bracket's midpoint to the
# reach that certifies it (see psi_q_root), which must stay below 1.
_ROOT_GUESS_CHEB = (
    -5.547397401640717e-15,
    4.322784232013114e-14,
    1.948825214270745e-14,
    -2.851979464717488e-13,
    -4.0476055896663435e-14,
    1.924215214786496e-12,
    2.769485158598489e-13,
    -1.4224501878288357e-11,
    -6.8484222722666145e-12,
    1.1520448363959695e-10,
    1.4894930217087412e-10,
    -9.774515010195853e-10,
    -2.9147459298530468e-09,
    7.0565964745131404e-09,
    5.697264023840629e-08,
    3.2159030951039355e-08,
    -1.217257546891454e-06,
    -5.627512656443416e-06,
    3.587931241699271e-05,
    0.00038967590037444094,
    -0.0021696710849810033,
    -0.04120842846568974,
    1.4229427580610932,
)
# Clenshaw's recurrence runs over every coefficient but c_0, which it adds last.
_ROOT_GUESS_CLENSHAW, _ROOT_GUESS_C0 = _ROOT_GUESS_CHEB[:-1], _ROOT_GUESS_CHEB[-1]
_ROOT_GUESS_S_MAX = -math.log(0.05)  # the fitted range's top
# Half-width of the bracket around each centre: about 30 times the guess's
# largest error, so that |psi_q| at the midpoint stays within 0.045 of the
# half-width times a lower bound on psi_q' there, the reach that certifies
# the bracket, and small enough that every bracket is below 1e-12 wide.
_ROOT_GUESS_HALF_WIDTH = 3e-13


def _root_guess(q: QParam) -> float:
    """The guess of psi_q's positive zero that psi_q_root starts from: the
    fitted g(q) for q >= 0.05, and below that range (s > -ln 0.05)
    x_s = 1 + ln(s) / s, s = -ln q, where the first terms of psi_q,
    -ln(1-q) ~ q and -s q^x, cancel (s q^(x-1) = 1)."""
    s = -q.ln_q
    if s > _ROOT_GUESS_S_MAX:
        return 1.0 + math.log(s) / s
    t = 2.0 * s / _ROOT_GUESS_S_MAX - 1.0
    t2 = t + t
    b1 = b2 = 0.0
    for c in _ROOT_GUESS_CLENSHAW:
        b1, b2 = c + t2 * b1 - b2, b1
    return _ROOT_GUESS_C0 + t * b1 - b2


# The slope floor is taken 2^-48 of itself below its computed value, several
# times the rounding of its few operations: for q below about 1e-7 the terms
# it leaves out of psi_q' fall below that rounding.
_SLOPE_FLOOR_SCALE = 1.0 - 2.0**-48


def _psi_q_slope_floor(x: float, q: QParam) -> float:
    """L = s^2 [u_0 / (1-u_0)^2 + u_1 / (1-u_1)^2], u_k = q^(x+k) and
    s = -ln q: the first two terms of psi_q'(x) = s^2 sum_{k>=0} u_k / (1-u_k)^2,
    the k-form of (ln q)^2 sum_n n q^(nx) / (1-q^n), so below psi_q' on
    (0, x], where psi_q' decreases.  Each 1 - u_k is -expm1(-s (x+k)), and
    a u_k that underflows adds 0, so L is finite at every q."""
    s = -q.ln_q
    w0, w1 = -s * x, -s * (x + 1.0)
    d0, d1 = math.expm1(w0), math.expm1(w1)
    return _SLOPE_FLOOR_SCALE * s * s * (math.exp(w0) / (d0 * d0) + math.exp(w1) / (d1 * d1))


def _psi_q_root_reach(lo: float, mid: float, hi: float, q: QParam) -> float:
    """The reach min(mid - lo, hi - mid) L that certifies [lo, hi] (see psi_q_root)."""
    return min(mid - lo, hi - mid) * _psi_q_slope_floor(hi, q)


def psi_q_root(q: QParam) -> PsiRoot:
    """The positive zero of psi_q, certified by a sign change of psi_q
    across the bracket [lo, hi] = c -+ 3e-13 around a centre c.

    The first centre is the guess (see _root_guess): for q >= 0.05 a fitted
    series within 1.1e-14 of psi_q's zero at every q tried from 0.05 to
    1 - 1.1e-12, and below that range x_s = 1 + ln(s)/s.  At each centre one psi_q call
    gives the residual at the bracket's midpoint m, which certifies the
    bracket by the mean value theorem.  psi_q'' = (ln q)^3 sum_n n^2
    q^(nx) / (1-q^n) < 0, so psi_q' is positive and decreasing, and on
    [lo, hi] it is at least psi_q'(hi) and so at least L, the first two
    terms of psi_q'(hi) (see _psi_q_slope_floor).  Then |psi_q(m)| < min(m
    - lo, hi - m) L, the reach, gives psi_q(lo) < 0 < psi_q(hi).  For
    s = -ln q <= -ln 0.05 the omitted terms are above 2e-3 of L, far above
    its rounding; below 0.05 they fall toward it, and L is taken 2^-48 of
    itself low.  The computed psi_q(m) is taken as exact; its
    error_estimate is left out of the comparison.  A certified bracket must
    also have |psi_q(m)| <= 1e-10.  |psi_q(m)| is at most 0.045 of the
    reach at every q tried in [0.05, 1 - 1.1e-12], so there the solve is
    that one call, and builds nothing but the PsiRoot it returns.

    A centre that is not certified moves by one Newton step from m, with
    psi_q'(m) from psi_q_m; the step needs no certificate, so a psi_q_m
    stopped by the term cap gives its partial sum.  Below 0.05 the steps
    refine x_s, which is 1.3e-2 off the zero at q = 0.049 and within 3e-13
    of it below q = 1e-12: over 5,000 q log-uniform in [least normal, 0.05],
    4,851 solves take 1 psi_q call and none more than 4 psi_q and 3 psi_q_m
    calls.  Near q = 1 psi_q takes its q-Stirling form, at most 17 terms, so
    no solve raises NonConvergence from psi_q, up to the largest q QParam
    takes.  The guess is positive at every q; a solve raises BracketFailure when a Newton step
    leaves (0, inf), or when none of _ROOT_CENTRES centres is certified,
    naming the last centre and its residual, with no step after it.

    q below the least normal double raises DomainError: psi_q is of order
    q near its zero, so the signs that would certify a bracket come from
    values that have lost their bits (at q = 1e-320 the root would be off
    by 1.3e-4).
    """
    if q.q < sys.float_info.min:
        raise DomainError(f"psi_q's root is not certified for subnormal q={q.q!r}")
    centre = _root_guess(q)
    for step in range(_ROOT_CENTRES):
        if step:
            # The certificate does not rest on the slope, so a capped psi_q_m
            # gives its partial sum; psi_q' > 0, so a slope of 0 leaves no step.
            try:
                slope = psi_q_m(1, root, q).value
            except NonConvergence as exc:
                slope = exc.partial_value
            centre = root - residual / slope if slope > 0.0 else math.nan
            if not 0.0 < centre < math.inf:
                raise BracketFailure(
                    f"psi_q's zero not certified: Newton step out of (0, inf) (next {centre!r}) for q={q.q}"
                )
        lo, hi = centre - _ROOT_GUESS_HALF_WIDTH, centre + _ROOT_GUESS_HALF_WIDTH
        root = 0.5 * (lo + hi)
        residual = psi_q(root, q).value
        if abs(residual) <= _ROOT_RESIDUAL_TOL and abs(residual) < _psi_q_root_reach(lo, root, hi, q):
            return new_record(PsiRoot, (root, lo, hi, residual))
    raise BracketFailure(
        f"psi_q's zero not certified within {_ROOT_CENTRES} centres (last {root!r}, residual {residual!r}) for q={q.q}"
    )
