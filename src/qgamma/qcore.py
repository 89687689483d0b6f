"""q-arithmetic primitives and the shared convergent-series evaluator.

All higher modules build on two things defined here: the deformation
parameter wrapper ``QParam`` (which pins down how powers of q are computed)
and ``sum_geometric_decay`` (which turns a term function plus a geometric
domination ratio into a value with a certified truncation bound).

The value types of the package (``QParam``, ``EvalConfig``, ``Evaluation``
here, ``PsiRoot``, ``BoundPair``, ``DomainSpec`` and the report records of
the other modules) are immutable ``typing.NamedTuple`` records: they unpack,
index and compare equal to plain tuples of their fields.  Those with a
domain rule check it on every construction path.  Hot paths build
``Evaluation`` and ``BoundPair`` with ``new_record`` (``tuple.__new__``):
the same object the constructor makes, without its Python frame; a record
with a domain rule is never built that way.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .errors import DomainError, NonConvergence, Overflow

# QParam construction rejects q this close to 1.  ln Gamma_q takes the same
# few terms at every q up to here, but psi_q and psi_q^(m) still need about
# 2 sqrt(30/(1-q)) terms (the default cap of 10^6 near 1 - 1e-10), and the
# q->1 limit itself belongs to the classical module.
_Q_UPPER_CUTOFF = 1.0 - 1e-12

# The accuracy contract of every series: summation stops once the tail
# bound is at most REL_TOL of the partial sum, or ABS_TOL for a sum that is
# zero to the double range (an underflow floor, not an accuracy target).
REL_TOL = 1e-13
ABS_TOL = 1e-300


class _QParamFields(NamedTuple):
    q: float
    ln_q: float


class QParam(_QParamFields):
    """Deformation parameter q, strictly inside (0, 1).

    ``ln_q`` is computed once at construction, and every power of q in the
    package is taken from it: q^x as exp(x * ln_q), 1 - q^x as
    -expm1(x * ln_q), through :func:`q_pow` and :func:`q_bracket` or written
    out in the loops of ``psi_q``, ``psi_q_m`` and ``ln_gamma_q``.  Built
    from q alone; ``_replace(q=...)``, ``_make``, copies and pickles all
    pass through the same check.
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


class _EvalConfigFields(NamedTuple):
    max_terms: int


class EvalConfig(_EvalConfigFields):
    """The term cap of series evaluation; the accuracy is fixed by REL_TOL."""

    __slots__ = ()

    def __new__(cls, max_terms: int = 10**6):
        if max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {max_terms!r}")
        return tuple.__new__(cls, (max_terms,))

    @classmethod
    def _make(cls, iterable) -> EvalConfig:
        return cls(*iterable)


DEFAULT_CONFIG = EvalConfig()


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


def cap_error(cfg: EvalConfig, partial_value: float, error_estimate: float, terms_used: int) -> NonConvergence:
    """The NonConvergence of an evaluation stopped by cfg.max_terms, with its
    partial value and the bound on what it left out."""
    return NonConvergence(
        f"no convergence within {cfg.max_terms} terms (estimate {error_estimate:.3e})",
        partial_value=partial_value,
        error_estimate=error_estimate,
        terms_used=terms_used,
    )


def q_pow(q: QParam, x: float) -> float:
    """q^x as exp(x * ln q); ``psi_q``, ``psi_q_m`` and ``ln_gamma_q`` write
    the same expression out in their loops rather than call this."""
    return math.exp(x * q.ln_q)


def q_bracket(x: float, q: QParam) -> float:
    """The q-analogue of x: (1 - q^x) / (1 - q), with 1 - q^x as
    -expm1(x ln q) so that small x keeps its digits."""
    return -math.expm1(x * q.ln_q) / (1.0 - q.q)


def q_bracket_derivative(x: float, q: QParam) -> float:
    """d/dx of the q-bracket: -(ln q) q^x / (1 - q); positive for all x."""
    return -q.ln_q * q_pow(q, x) / (1.0 - q.q)


def q_factorial(n: int, q: QParam) -> float:
    """prod_{k=1..n} [k]_q with the empty product equal to 1."""
    if n < 0 or n != int(n):
        raise DomainError(f"n must be a non-negative integer, got {n!r}")
    acc = 1.0
    for k in range(1, int(n) + 1):
        acc *= q_bracket(float(k), q)
    if math.isinf(acc):
        raise Overflow(f"q-factorial overflowed at n={n}, q={q.q}")
    return acc


def sum_geometric_decay(
    term: Callable[[int], float],
    decay_ratio: float,
    start_index: int,
    cfg: EvalConfig = DEFAULT_CONFIG,
    ratio_from: int = 0,
) -> Evaluation:
    """Sum term(n) for n >= start_index under geometric tail domination.

    The caller guarantees |term(n+1)| <= decay_ratio * |term(n)| for every
    n >= ratio_from, or from start_index on by default (each call site
    documents its ratio and threshold).  Once the first omitted index n is
    at least ratio_from, |term(n)| / (1 - decay_ratio) therefore bounds the
    omitted tail.  Summation stops at the first such n where that bound
    drops to max(REL_TOL * |S|, ABS_TOL), S the partial sum; the terms
    before it are summed with no stop test, and count against max_terms
    like the rest.

    Raises NonConvergence, carrying the partial sum, if max_terms is
    reached first; its estimate is inf if no stop test was reached.
    """
    if not (0.0 < decay_ratio < 1.0):
        raise DomainError(f"decay_ratio must be in (0, 1), got {decay_ratio!r}")
    inv_gap = 1.0 / (1.0 - decay_ratio)
    max_terms = cfg.max_terms
    total = 0.0
    untested = ratio_from - start_index - 1
    if untested > 0:
        # No bound holds before ratio_from, so no stop test either.
        for n in range(start_index, start_index + min(untested, max_terms)):
            total += term(n)
        if untested >= max_terms:
            raise cap_error(cfg, total, math.inf, max_terms)
    else:
        untested = 0
    nxt = term(start_index + untested)
    for used in range(untested + 1, max_terms + 1):
        total += nxt
        nxt = term(start_index + used)
        estimate = abs(nxt) * inv_gap
        threshold = REL_TOL * total
        if threshold < 0.0:
            threshold = -threshold
        if threshold < ABS_TOL:
            threshold = ABS_TOL
        if estimate <= threshold:
            return new_record(Evaluation, (total, estimate, used))
    raise cap_error(cfg, total, estimate, max_terms)
