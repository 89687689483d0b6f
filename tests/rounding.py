"""Rounding bounds for two forms of the same psi-family series term.

The reference tests compare the series as the library forms it, each power
of q carried from the one before, with the closures that take one exp and
one expm1 per term.  Neither is exact, so they are held to the sum of
their two rounding bounds against the exact term of the same double
inputs (y ln q, ln q, y ln q / m, scale, x), written out here from each
form's operations.

The model is the standard one (Higham 2002, Accuracy and Stability of
Numerical Algorithms, 2nd ed., section 2.2): every +, -, *, / of doubles
returns the exact result times 1 + d with |d| <= U = 2^-53, so a product of
k such factors is within gamma_k = kU / (1 - kU) of 1 (section 3.1), and a
sum of positive terms, each within relative e of exact, added in order,
is within e + gamma_(k-1) of its exact value.  An argument t with relative
error d moves exp(t) by a factor exp(|t| d).  Each libm call (exp, expm1,
log1p, pow) is charged LIBM, one ulp, at most 2 U: the glibc manual's
table of known maximum errors lists 1 ulp for each of them in double on
x86-64.  The charges below are first-order sums; ``relative`` takes expm1
of a sum, since (1 + d_1) ... (1 + d_k) <= exp(|d_1| + ... + |d_k|), and a
power (1 + e)^m <= exp(m e), so every bound returned is an upper bound.
"""

import math

U = 2.0**-53
LIBM = 2.0 * U  # one ulp


def relative(charge: float) -> float:
    """The bound exp(charge) - 1 on a relative error charged ``charge`` to first order."""
    return math.expm1(charge)


def gamma(k: int) -> float:
    """gamma_k = kU / (1 - kU) (Higham 2002, lemma 3.1)."""
    return k * U / (1.0 - k * U)


def term_bound(ref: float, charge_ref: float, charge_got: float) -> float:
    """Bound on |t_got - t_ref| for one term formed two ways, from the
    reference value and each form's charge: the exact term T is within
    r_ref |T| of t_ref, so |T| <= |t_ref| / (1 - r_ref), and each form is
    within its own r |T| of T."""
    r_ref = relative(charge_ref)
    return (r_ref + relative(charge_got)) * abs(ref) / (1.0 - r_ref)


def sum_bound(summands: list, charges_ref: list, charges_got: list) -> float:
    """Bound on |S_got - S_ref| for one sum of same-sign terms formed two
    ways and added in order, from the reference's ``summands``: each term's
    bound plus the additions of both sums, 2 gamma_(N-1) sum |T|."""
    spread = sum(term_bound(t, a, b) for t, a, b in zip(summands, charges_ref, charges_got))
    exact = sum(abs(t) / (1.0 - relative(a)) for t, a in zip(summands, charges_ref))
    return spread + 2.0 * gamma(max(len(summands) - 1, 0)) * exact


def tail_summand_closure(n: int, y_ln_q: float, m: int) -> float:
    """Charge of exp(n y ln q) / -expm1(n ln q) (m = 0) or
    (n exp(n a) scale)^m / -expm1(n ln q), a = y ln q / m: the rounded
    n a moves exp by |n a| U; exp 2U, n * and * scale U each, pow m times
    that plus its own 2U; n ln q rounded moves 1 - q^n by at most U (as
    |t| e^t / (1 - e^t) <= 1 for t < 0), expm1 2U; the division U."""
    one_minus = U + LIBM
    if not m:
        return abs(n * y_ln_q) * U + LIBM + one_minus + U
    a = y_ln_q / m
    return m * (abs(n * a) * U + LIBM + 2 * U) + LIBM + one_minus + U


def tail_summand_carried(n: int, y_ln_q: float, m: int) -> float:
    """Charge of the engine's summand at index n: its power of q^y or
    q^(y/m) from one exp (2U) and n - 1 products (U each); for m >= 1 and
    q^(y/m) >= 1/2 the first exp's error is taken out by the factor
    1 + n eps, which leaves n times expm1's error on it, 2U |expm1(a)| over
    q^(y/m), the second-order (n eps)^2 with |eps| <= 2U, and 2U for
    scale + n drift.  1 - q^n sums n positive terms q^j (1 - q), j < n,
    each 1 - q (2U) times q (2U) j times (3jU), with n - 1 additions: at
    most 4nU.  For m >= 1, n * and * weight U each and pow m times the base
    plus 2U; the division U."""
    one_minus = 4 * n * U
    if not m:
        return n * LIBM + (n - 1) * U + one_minus + U
    a = y_ln_q / m
    step = math.exp(a)
    if step >= 0.5:
        power = n * LIBM * abs(math.expm1(a)) / step + (n * LIBM) ** 2 + 2 * U
    else:
        power = n * LIBM
    power += (n - 1) * U
    return m * (power + 2 * U) + LIBM + one_minus + U


def head_term_loop(k: int, x: float, ln_q: float, m: int) -> float:
    """Charge of psi_q_m's head term u A_m(u) (ln q / (1 - u))^(m+1) with
    t = (x + k) ln q, u = exp(t) and 1 - u = -expm1(t): t rounded twice
    moves u by 2U |t|, exp 2U; 1 - u moves by 2U from t and 2U in expm1."""
    t = (x + k) * ln_q
    return _head_term(2 * U * abs(t) + LIBM, 2 * U + LIBM, m)


def head_term_carried(k: int, x: float, ln_q: float, m: int) -> float:
    """Charge of the same term with u_k = exp(x ln q) q^k, q = exp(ln q),
    and 1 - u_k = -expm1(x ln q) + sum_{j<k} u_j (1 - q): u_0 from one
    rounded x ln q and one exp, then k products by q (3U each); each
    u_j (1 - q) one charge of u_j plus 3U, summed with k additions."""
    u0 = U * abs(x * ln_q) + LIBM
    e_u = u0 + 3 * k * U
    e_d = U + LIBM if k == 0 else u0 + 3 * (k - 1) * U + 3 * U + k * U
    charge = _head_term(e_u, e_d, m)
    if m > 16:
        charge += _root_form(k, x, ln_q, m)
    return charge


def _root_form(k: int, x: float, ln_q: float, m: int) -> float:
    """What the form ((u A_m(u))^(1/(m+1)) r)^(m+1) of the kernels above
    m = 16 adds to _head_term's charge: in place of the product of
    u A_m(u) and r^(m+1) (U), the root (LIBM) and its product with r (U),
    each taken to the power m + 1, and the rounded exponent 1/(m+1) (U
    relative), which moves P^(1/(m+1)) by |ln P| U / (m+1), so P by
    |ln P| U.  P = u A_m(u) lies in [u, m!], so |ln P| is at most the
    larger of ln m! and |(x + k) ln q|."""
    ln_p = max(math.lgamma(m + 1), abs((x + k) * ln_q))
    return (m + 1) * (LIBM + U) + ln_p * U - U


def _head_term(e_u: float, e_d: float, m: int) -> float:
    """u A_m(u) moves by m e_u (A_m has positive coefficients and degree
    m - 1), Horner over m coefficients rounds 2(m - 1) times and * u once;
    ln q / (1 - u) moves by e_d + U and its pow by m + 1 times that plus
    2U; the product U."""
    return m * e_u + (2 * m - 1) * U + (m + 1) * (e_d + U) + LIBM + U
