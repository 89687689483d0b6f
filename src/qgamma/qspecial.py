"""The q-special functions: ln Gamma_q, Gamma_q, psi_q, its derivatives,
the q-Euler constant, and the unique positive root of psi_q.

Gamma_q is only ever computed through its logarithm; the raw product over-
and underflows quickly and every downstream inequality works in log space
anyway.  Arguments x <= 0 are rejected: no analytic continuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import MAX_EXP
from .errors import BracketFailure, DomainError, Overflow
from .qcore import DEFAULT_CONFIG, EvalConfig, Evaluation, QParam, q_pow, sum_geometric_decay

# The series engine stops on the magnitude of its own partial sum, while the
# accuracy contract is on the full log value (base term included).  Tightening
# the internal stop keeps the exponentiated relative error within cfg.rel_tol
# even when the base term dominates the series part.
_STOP_SAFETY = 1.0 / 16.0


def _series_cfg(cfg: EvalConfig) -> EvalConfig:
    return EvalConfig(cfg.rel_tol * _STOP_SAFETY, cfg.abs_tol, cfg.max_terms)


def _require_positive(x: float, name: str = "x") -> None:
    if not x > 0.0:
        raise DomainError(f"{name} must be positive, got {x!r}")


def ln_gamma_q(x: float, q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> Evaluation:
    """ln Gamma_q(x) = (1-x) ln(1-q) + sum_{n>=0} [ln(1-q^(n+1)) - ln(1-q^(n+x))].

    The n-th term has magnitude ~ q^n |q - q^x|, and |term(n+1)| <= q * |term(n)|
    holds for every n (expand both logs as power series in q^n), so the
    geometric tail bound with ratio q is certified from the first term.
    """
    _require_positive(x)

    exp = math.exp
    log1p = math.log1p
    ln_q = q.ln_q

    def term(n: int) -> float:
        return log1p(-exp((n + 1.0) * ln_q)) - log1p(-exp((n + x) * ln_q))

    series = sum_geometric_decay(term, q.q, 0, _series_cfg(cfg))
    base = (1.0 - x) * math.log1p(-q.q)
    return Evaluation(base + series.value, series.error_estimate, series.terms_used)


def gamma_q(x: float, q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> Evaluation:
    """Gamma_q(x) = exp(ln Gamma_q(x)); truncation bound scaled by the value."""
    ln_ev = ln_gamma_q(x, q, cfg)
    if ln_ev.value > MAX_EXP:
        raise Overflow(f"Gamma_q({x}, q={q.q}) exceeds the double range (ln = {ln_ev.value:.6g})")
    value = math.exp(ln_ev.value)
    return Evaluation(value, abs(value) * ln_ev.error_estimate, ln_ev.terms_used)


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


def _sum_in_range(term, decay: float, start: int, cfg: EvalConfig, name: str, *args) -> Evaluation:
    """sum_geometric_decay, raising Overflow, named name(*args), for a sum
    beyond the double range.

    Only a k = 0 term of a k-form can leave the range (x near the pole at
    0, where 1 - q^x is 0 or small enough for a quotient or power by it to
    overflow), and every term has the sign of the sum, so the sum leaves it
    too.
    """
    try:
        series = sum_geometric_decay(term, decay, start, cfg)
    except (ZeroDivisionError, OverflowError):
        series = None
    if series is None or math.isinf(series.value):
        raise Overflow(f"{name}{args!r} exceeds the double range")
    return series


def psi_q(x: float, q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> Evaluation:
    """psi_q(x) = -ln(1-q) + (ln q) sum_{n>=1} q^(nx) / (1-q^n), summed in
    the order whose decay ratio is smaller.

    Expanding 1/(1-q^n) = sum_{k>=0} q^(nk) makes this the double series
    sum_{n>=1, k>=0} q^(n(x+k)).  For x >= 1 it is summed along n: the
    summand ratio q^x (1-q^n)/(1-q^(n+1)) < q^x <= q is certified from the
    first term.  For x < 1, where q^x nears 1, it is summed along k:
        psi_q(x) = -ln(1-q) + (ln q) sum_{k>=0} u_k / (1-u_k),  u_k = q^(x+k),
    whose summand u/(1-u) = sum_n u^n has nonnegative coefficients, so
    term(k+1) <= q term(k) from k = 0.  At x = 1 the k-terms are the n-terms
    one for one.  1 - u_k is computed as -expm1((x+k) ln q), and ln q is
    taken into each k-term so that a value near the pole at 0 stays in range
    as long as the result does; one beyond it raises Overflow.
    """
    _require_positive(x)
    exp = math.exp
    ln_q = q.ln_q
    if x < 1.0:
        expm1 = math.expm1

        def term(k: int) -> float:
            s = (x + k) * ln_q
            return exp(s) * ln_q / -expm1(s)

        decay, start, scale = q.q, 0, 1.0
    else:
        # exp(n x ln q) inlined from q_pow; this loop dominates every
        # certification run.
        x_ln_q = x * ln_q

        def term(n: int) -> float:
            return exp(n * x_ln_q) / (1.0 - exp(n * ln_q))

        decay, start, scale = q_pow(q, x), 1, ln_q

    series = _sum_in_range(term, decay, start, cfg, "psi_q", x, q.q)
    value = -math.log1p(-q.q) + scale * series.value
    return Evaluation(value, abs(scale) * series.error_estimate, series.terms_used)


def psi_q_m(m: int, x: float, q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> Evaluation:
    """m-th derivative of psi_q: (ln q)^(m+1) sum_{n>=1} n^m q^(nx) / (1-q^n),
    summed in the order whose decay ratio is smaller.

    Sign follows (ln q)^(m+1): positive for odd m, negative for even m.

    For x >= 1 the sum runs along n.  The summand ratio
    (1+1/n)^m q^x (1-q^n)/(1-q^(n+1)) approaches q^x from above, so plain
    q^x does not dominate.  We pass the inflated ratio
        r = min((9/8)^m q^x, (1+q^x)/2),
    valid for all n >= 8 in the first branch and for all n beyond a small
    threshold ~2m/(1-q^x) in the second; the stopping index exceeds both
    whenever the tail estimate is at all significant.

    For x < 1 the same double series sum_{n>=1, k>=0} n^m q^(n(x+k)) runs
    along k:
        (ln q)^(m+1) sum_{k>=0} Li_{-m}(u_k),  u_k = q^(x+k),
    with Li_{-m}(u) = sum_n n^m u^n = u A_m(u) / (1-u)^(m+1) and A_m the
    Eulerian polynomial.  Li_{-m} has nonnegative coefficients, so
    Li_{-m}(q u) <= q Li_{-m}(u) and ratio q is certified from k = 0.
    1 - u_k is computed as -expm1((x+k) ln q), and (ln q)^(m+1) is taken
    into each k-term as (ln q / (1-u_k))^(m+1), so that a value near the
    pole at 0 stays in range as long as the result does; one beyond it
    raises Overflow.
    """
    if m < 1 or m != int(m):
        raise DomainError(f"m must be an integer >= 1, got {m!r}")
    _require_positive(x)
    exp = math.exp
    ln_q = q.ln_q
    if x < 1.0:
        expm1 = math.expm1
        eulerian = _eulerian(int(m))[::-1]
        power = m + 1

        def term(k: int) -> float:
            s = (x + k) * ln_q
            u = exp(s)
            a = 0.0
            for c in eulerian:
                a = a * u + c
            return u * a * (ln_q / -expm1(s)) ** power

        decay, start, scale = q.q, 0, 1.0
    else:
        qx = q_pow(q, x)
        x_ln_q = x * ln_q

        def term(n: int) -> float:
            return float(n) ** m * exp(n * x_ln_q) / (1.0 - exp(n * ln_q))

        decay, start, scale = min(1.125**m * qx, 0.5 * (1.0 + qx)), 1, ln_q ** (m + 1)

    series = _sum_in_range(term, decay, start, cfg, "psi_q_m", m, x, q.q)
    return Evaluation(scale * series.value, abs(scale) * series.error_estimate, series.terms_used)


def euler_gamma_q(q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> Evaluation:
    """q-extension of the Euler-Mascheroni constant: -psi_q(1)."""
    ev = psi_q(1.0, q, cfg)
    return Evaluation(-ev.value, ev.error_estimate, ev.terms_used)


@dataclass(frozen=True)
class PsiRoot:
    """The unique positive zero of psi_q with its certifying bracket."""

    q: QParam
    root: float
    bracket_low: float
    bracket_high: float
    residual: float


_BRACKET_LOW_LIMIT = 1e-8
_BRACKET_HIGH_LIMIT = 1e8
_ROOT_WIDTH_TOL = 1e-12
_ROOT_RESIDUAL_TOL = 1e-10
_ROOT_MAX_STEPS = 64


def psi_q_root(q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> PsiRoot:
    """Newton iteration from the left for the positive zero of psi_q.

    psi_q is increasing and concave (psi_q_m(1) > 0 > psi_q_m(2)), so every
    tangent line lies above the graph and meets zero at or left of the
    root.  A Newton step from a point where psi_q < 0 therefore never
    passes the root, and the iterates rise monotonically to it: each one is
    a certified low end of the bracket.  A slope taken at an earlier,
    smaller iterate is at least psi_q' here (psi_q' falls as t rises), so a
    step with it stays left of the root too; it is kept while the step it
    gives is estimated to fall short of the Newton step by less than half
    the width tolerance.

    Newton starts from the negative end of [1, 2], whose ends are halved /
    doubled until they enclose a sign change.  Each trial is the Newton
    point clamped to half the width tolerance inside the bracket: once the
    steps fall below that, the trial just right of the low end is positive
    and closes the bracket to width 1e-12.  Within a few ulps of the root,
    rounding can put a trial at psi_q >= 0; it becomes the high end and the
    next trial sits half the tolerance inside it.  A high end where psi_q
    is exactly 0 is stepped right until psi_q > 0.  Every loop is bounded
    and raises BracketFailure at its bound.
    """

    def f(t: float) -> float:
        return psi_q(t, q, cfg).value

    lo, hi = 1.0, 2.0
    f_lo = f(lo)
    while f_lo >= 0.0:
        lo *= 0.5
        if lo < _BRACKET_LOW_LIMIT:
            raise BracketFailure(f"no negative psi_q value found down to {_BRACKET_LOW_LIMIT} for q={q.q}")
        f_lo = f(lo)
    f_hi = f(hi)
    while f_hi <= 0.0:
        hi *= 2.0
        if hi > _BRACKET_HIGH_LIMIT:
            raise BracketFailure(f"no positive psi_q value found up to {_BRACKET_HIGH_LIMIT} for q={q.q}")
        f_hi = f(hi)

    half_tol = 0.5 * _ROOT_WIDTH_TOL
    slope, slope_at = psi_q_m(1, lo, q, cfg).value, lo
    for _ in range(_ROOT_MAX_STEPS):
        # Quadratic convergence puts the shortfall of a step with a slope from
        # slope_at near 2 step^2 / (lo - slope_at); refresh once it matters.
        if slope_at != lo and 2.0 * (f_lo / slope) ** 2 >= half_tol * (lo - slope_at):
            slope, slope_at = psi_q_m(1, lo, q, cfg).value, lo
        t = min(max(lo - f_lo / slope, lo + half_tol), hi - half_tol)
        f_t = f(t)
        if f_t < 0.0:
            lo, f_lo = t, f_t
        else:
            hi, f_hi = t, f_t
        if hi - lo <= _ROOT_WIDTH_TOL:
            break
    else:
        raise BracketFailure(f"bracket wider than {_ROOT_WIDTH_TOL} after {_ROOT_MAX_STEPS} steps for q={q.q}")

    # A trial can hit psi_q == 0 exactly; keep a strict sign change across
    # the reported bracket.
    steps = 0
    while f_hi <= 0.0:
        steps += 1
        if steps > _ROOT_MAX_STEPS:
            raise BracketFailure(f"no positive psi_q value within {_ROOT_MAX_STEPS} steps above {lo} for q={q.q}")
        hi += half_tol
        f_hi = f(hi)

    root = 0.5 * (lo + hi)
    residual = f(root)
    if abs(residual) > _ROOT_RESIDUAL_TOL:
        raise BracketFailure(
            f"root residual {residual:.3e} exceeds {_ROOT_RESIDUAL_TOL} for q={q.q}"
        )
    return PsiRoot(q=q, root=root, bracket_low=lo, bracket_high=hi, residual=residual)
