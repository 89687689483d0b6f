"""q-arithmetic primitives and the shared convergent-series evaluator.

All higher modules build on two things defined here: the deformation
parameter wrapper ``QParam`` (which pins down how powers of q are computed)
and ``sum_geometric_decay``, the series engine of psi_q's n-series side
(q <= 0.6126) and of psi_q^(m): from the tail's numbers (y ln q, ln q, m
and a scale) and its term budget, a plain count, it computes each summand
of their n-series in its own loop, each power of q from the one before,
with no exp or expm1 call per term, and returns the sum with a truncation
bound it certifies itself, from the ratio (1+1/n)^m q^y that bounds every
later summand ratio.  Every n-series is capped at the one fixed
``MAX_TERMS``; ``cap_error`` takes a cap as a count, so a caller that has
spent part of it on a head passes the rest on.

The value types of the package (``QParam`` and ``Evaluation`` here,
``PsiRoot``, ``BoundPair``, ``DomainSpec`` and the report records of the
other modules) are immutable ``typing.NamedTuple`` records: they unpack,
index and compare equal to plain tuples of their fields.  Those with a
domain rule check it on every construction path.  Hot paths build
``Evaluation`` and ``BoundPair`` with ``new_record`` (``tuple.__new__``):
the same object the constructor makes, without its Python frame; a record
with a domain rule is never built that way.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import DomainError, NonConvergence

# QParam construction rejects q this close to 1.  ln Gamma_q and psi_q take
# the same few terms at every q up to here, but psi_q^(m) still needs about
# 2 sqrt(30/(1-q)) terms (MAX_TERMS near 1 - q = 1e-10), and the q->1
# limit itself belongs to the classical module.
_Q_UPPER_CUTOFF = 1.0 - 1e-12

# The accuracy contract of every series: summation stops once the tail
# bound is at most REL_TOL of the partial sum, or ABS_TOL for a sum that is
# zero to the double range (an underflow floor, not an accuracy target).
REL_TOL = 1e-13
ABS_TOL = 1e-300

# The term cap of every series, fixed: a psi_q^(m) call that needs more
# raises NonConvergence with its partial sum.  It binds where 1 - q is
# below about 1e-10; ln Gamma_q and psi_q never take more than 17 terms,
# and psi_q's q-Stirling side (q > 0.6126) does not read it.
MAX_TERMS = 10**6


class _QParamFields(NamedTuple):
    q: float
    ln_q: float


class QParam(_QParamFields):
    """Deformation parameter q, strictly inside (0, 1).

    ``ln_q`` is computed once at construction, and every power of q in the
    package is taken from it: q^x as exp(x * ln_q), 1 - q^x as
    -expm1(x * ln_q), through :func:`q_pow` and :func:`q_bracket` or written
    out in ``ln_gamma_q`` and ``psi_q``'s head.  The series loops of
    ``sum_geometric_decay`` and ``psi_q_m``'s head take q, 1 - q and their
    first power so once per call, and each later power from the one before
    (see there).  Built from q alone; ``_replace(q=...)``, ``_make``, copies
    and pickles all pass through the same check.
    """

    __slots__ = ()

    def __new__(cls, q: float):
        if not (0.0 < q < _Q_UPPER_CUTOFF):
            raise DomainError(f"q must satisfy 0 < q < 1 - 1e-12, got {q!r}")
        return tuple.__new__(cls, (q, math.log(q)))

    def __getnewargs__(self):
        return (self.q,)

    @classmethod
    def _make(cls, iterable) -> QParam:
        q, ln_q = iterable
        made = cls(q)
        if ln_q != made.ln_q:
            raise DomainError(f"ln_q must be math.log(q), got {ln_q!r} for q={q!r}")
        return made

    def _replace(self, *, q: Optional[float] = None) -> QParam:
        return QParam(self.q if q is None else q)


def require_count(value: int, name: str) -> None:
    """The one domain rule for a count (a number of samples or points):
    an integer and not a bool, else DomainError, and >= 1, else
    DomainError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value!r}")


class Evaluation(NamedTuple):
    """A computed value with an a-posteriori truncation bound.

    ``error_estimate`` bounds the omitted series tail under the geometric
    tail model documented at each call site; it excludes rounding.
    """

    value: float
    error_estimate: float
    terms_used: int


# new_record(Cls, (field, ...)) is Cls(field, ...) for a NamedTuple record
# without a domain rule, built in one C call: a NamedTuple's generated
# __new__ is tuple.__new__(cls, fields) behind a Python frame.
new_record = tuple.__new__


def require_positive(value: float, name: str = "x") -> None:
    """The one domain rule for an argument that must be positive: finite
    and > 0, else DomainError."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {value!r}")


def cap_error(max_terms: int, partial_value: float, error_estimate: float, terms_used: int) -> NonConvergence:
    """The NonConvergence of an evaluation stopped by its term cap
    ``max_terms`` (a count), with its partial value and the bound on what
    it left out."""
    return NonConvergence(
        f"no convergence within {max_terms} terms (estimate {error_estimate:.3e})",
        partial_value=partial_value,
        error_estimate=error_estimate,
        terms_used=terms_used,
    )


def q_pow(q: QParam, x: float) -> float:
    """q^x as exp(x * ln q); ``ln_gamma_q`` and the series loops' first
    powers write the same expression out rather than call this."""
    return math.exp(x * q.ln_q)


def q_bracket(x: float, q: QParam) -> float:
    """The q-analogue of x: (1 - q^x) / (1 - q), with 1 - q^x as
    -expm1(x ln q) so that small x keeps its digits."""
    return -math.expm1(x * q.ln_q) / (1.0 - q.q)


def q_bracket_derivative(x: float, q: QParam) -> float:
    """d/dx of the q-bracket: -(ln q) q^x / (1 - q); positive for all x."""
    return -q.ln_q * q_pow(q, x) / (1.0 - q.q)


def sum_geometric_decay(
    y_ln_q: float,
    ln_q: float,
    max_terms: int = MAX_TERMS,
    m: int = 0,
    scale: float = 1.0,
) -> Evaluation:
    """The n-series tail of psi_q (m = 0) and psi_q^(m) (m >= 1) at
    y = x + K, with a truncation bound it certifies itself:
        m = 0:   sum_{n>=1} t(n),  t(n) = q^(ny) / (1 - q^n),
        m >= 1:  sum_{n>=1} t(n),  t(n) = (n q^(ny/m) scale)^m / (1 - q^n),
    with q^y = exp(y_ln_q), q = exp(ln_q), and scale s^((m+1)/m),
    s = -ln q, from qspecial._psi_series (see there).  ln q < 0, so every
    summand is a quotient of two non-negative numbers and the partial sum
    never decreases: the stop test needs no absolute values.

    The summands take no exp or expm1 call each.  q = exp(ln q),
    1 - q = -expm1(ln q) and q^y (m = 0) or q^(y/m) (m >= 1) are taken once,
    each later power of q^y or q^(y/m) is the one before times it, and
    1 - q^n is carried as (1 - q^(n-1)) + q^(n-1) (1 - q), a sum of positive
    terms.  The n-th power so carried is off by about n roundings, which the
    m-th power of a summand multiplies by m: so where q^(y/m) >= 1/2 its
    own rounding eps, exact from expm1(y ln q / m), is taken back out of
    the n-th summand as the factor 1 + n eps on scale (below 1/2,
    q^y < 2^-m and few terms are summed).  A call makes 3 exp and expm1
    calls at m = 0 and at most 5 at m >= 1, and for m >= 1 one log1p and
    one expm1 more at each candidate stop (see below); each summand's m-th
    power is one ``**``.

    One rule, for every m: t(n+1) / t(n) = r_n (1 - q^n) / (1 - q^(n+1))
    is below r_n = (1 + 1/n)^m q^y, and r_n falls as n grows, so wherever
    r_n < 1 the tail from index n is at most t(n) / (1 - r_n).  Summation
    stops at the first omitted index n where that bound is at most
    max(REL_TOL * S, ABS_TOL), S the partial sum.  At m = 0, r_n = q^y,
    taken once as exp(y ln q).  For m >= 1 a step first tests
    t(n) / (1 - q^y), below the bound as r_n >= q^y, and only when that
    passes takes ln r_n = m log1p(1/n) + y ln q.  No stop fires while
    r_n >= 1, so summands that rise to a peak from below ABS_TOL or the
    double range (m = 2100, y = 1000, q = 1/2) are summed through it.  A
    summand beyond the double range raises OverflowError as ** does.

    DomainError unless exp(y_ln_q) < 1 and ln_q < 0, where the series
    diverges (or q^y rounds to 1).  ``max_terms`` is the term budget as a
    count, MAX_TERMS for a caller with no head, or what its head left of
    it; below 1 it raises DomainError.  Raises NonConvergence, carrying the
    partial sum, once max_terms terms are summed with no stop; its estimate
    is the bound at the first omitted index, inf while r_n >= 1 there.
    """
    ratio = math.exp(y_ln_q)
    if not (ratio < 1.0 and ln_q < 0.0):
        raise DomainError(f"the tail needs exp(y_ln_q) < 1 and ln_q < 0, got y_ln_q={y_ln_q!r}, ln_q={ln_q!r}")
    if max_terms < 1:
        raise DomainError(f"max_terms must be >= 1, got {max_terms!r}")
    expm1 = math.expm1
    inv_gap = 1.0 / (1.0 - ratio)
    rel_tol, abs_tol = REL_TOL, ABS_TOL
    # q and 1 - q once; 1 - q^n is carried as the sum of q^j (1 - q), j < n.
    base = math.exp(ln_q)
    gap = -expm1(ln_q)
    one_minus_q_n = gap
    rise = gap * base  # q^n (1 - q), the next addend
    total = 0.0
    if m:
        log1p = math.log1p
        a = y_ln_q / m
        step = math.exp(a)  # q^(y/m)
        # scale eps, eps = (e^a - step) / step: 1 - step and its sum with
        # expm1(a) are exact for step in [1/2, 1] (Sterbenz).
        drift = scale * ((1.0 - step) + expm1(a)) / step if step >= 0.5 else 0.0
        power = step
        nxt = (power * (scale + drift)) ** m / gap
        for n in range(2, max_terms + 2):
            total += nxt
            one_minus_q_n += rise
            rise *= base
            power *= step
            nxt = (n * power * (scale + n * drift)) ** m / one_minus_q_n
            estimate = nxt * inv_gap
            if estimate <= rel_tol * total or estimate <= abs_tol:
                ln_ratio = m * log1p(1.0 / n) + y_ln_q
                if ln_ratio < 0.0:
                    estimate = nxt / -expm1(ln_ratio)
                    if estimate <= rel_tol * total or estimate <= abs_tol:
                        return new_record(Evaluation, (total, estimate, n - 1))
        ln_ratio = m * log1p(1.0 / n) + y_ln_q
        estimate = nxt / -expm1(ln_ratio) if ln_ratio < 0.0 else math.inf
    else:
        power = ratio
        nxt = power / gap
        for n in range(2, max_terms + 2):
            total += nxt
            one_minus_q_n += rise
            rise *= base
            power *= ratio
            nxt = power / one_minus_q_n
            estimate = nxt * inv_gap
            if estimate <= rel_tol * total or estimate <= abs_tol:
                return new_record(Evaluation, (total, estimate, n - 1))
    raise cap_error(max_terms, total, estimate, max_terms)
