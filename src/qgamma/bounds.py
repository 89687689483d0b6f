"""One operation per ratio inequality.

Every operation returns a BoundPair holding the lower bound, the exact
ratio, and the upper bound at one point.  All three are computed in log
space (the exponent forms span hundreds of orders of magnitude) and
exponentiated only for presentation; certification compares the log fields.

Log differences are written as log(x) - log(y) rather than log(x/y) so that
swapping the arguments negates every bound exponent exactly in floating
point; the antisymmetry of the main construction then holds to the bit.
``log_ratio`` is one ln_gamma_q sum, ln_gamma_q(x, q, y=y), rather than the
difference of two: it takes half the ln Gamma_q work, keeps the digits the
two F(1) terms would cancel, and is exactly antisymmetric too.

BoundPair, DomainSpec and Inequality are immutable NamedTuple records (see
``qcore``): they unpack, index and compare equal to plain tuples.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

from .classical import ln_gamma_classical, psi_classical
from .constants import CERT_SLACK_LOG, MAX_EXP
from .errors import AlphaBelowRoot, DomainError
from .qcore import (DEFAULT_CONFIG, EvalConfig, QParam, new_record, q_bracket, q_bracket_derivative, q_pow,
                    require_positive)
from .qspecial import ln_gamma_q, psi_q, psi_q_root

def _safe_exp(z: float) -> float:
    return math.inf if z > MAX_EXP else math.exp(z)


class BoundPair(NamedTuple):
    """Evaluated (lower, ratio, upper) triple of one double inequality.

    The log_* fields are the primary representation; lower/ratio/upper are
    their exponentials.  ``strict`` records whether the source inequality
    is strict.  A pair does not name its inequality: a corollary returns
    its theorem's pair at the shifted arguments as it is, and the caller
    knows which operation it called.
    """

    lower: float
    ratio: float
    upper: float
    lower_margin: float
    upper_margin: float
    strict: bool
    log_lower: float
    log_ratio: float
    log_upper: float


def _pair(log_lower: float, log_ratio: float, log_upper: float, strict: bool) -> BoundPair:
    lower = _safe_exp(log_lower)
    ratio = _safe_exp(log_ratio)
    upper = _safe_exp(log_upper)
    return new_record(
        BoundPair, (lower, ratio, upper, ratio - lower, upper - ratio, strict, log_lower, log_ratio, log_upper)
    )


def passes(lower_margin: float, upper_margin: float) -> bool:
    """The pass verdict on one point: both log margins, log_ratio - log_lower
    and log_upper - log_ratio, at least -CERT_SLACK_LOG."""
    return lower_margin >= -CERT_SLACK_LOG and upper_margin >= -CERT_SLACK_LOG


def ratio_gamma_q(x: float, y: float, q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Gamma_q(x) / Gamma_q(y), computed as exp(ln Gamma_q(x) - ln Gamma_q(y))
    from one ln_gamma_q sum."""
    return _safe_exp(ln_gamma_q(x, q, cfg, y=y).value)


# Proof functions f(t) = e^[t]_q Gamma_q(t) and g(t) = e^t Gamma_q(t+a)/(t+a):
# ln f(x) - ln f(y) is the log ratio less the offset; slopes are t (ln f)'(t).

def _f_offset(x: float, y: float, q: QParam) -> float:
    return (q_pow(q, x) - q_pow(q, y)) / (1.0 - q.q)


def _f_slope(t: float, q: QParam, cfg: EvalConfig) -> float:
    return t * (q_bracket_derivative(t, q) + psi_q(t, q, cfg).value)


def _g_offset(x: float, y: float, alpha: float) -> float:
    return (y - x) + (math.log(x + alpha) - math.log(y + alpha))


def _g_slope(t: float, alpha: float, q: QParam, cfg: EvalConfig) -> float:
    return t * ((t + alpha - 1.0) / (t + alpha) + psi_q(t + alpha, q, cfg).value)


def _require_alpha(alpha: float, q: QParam, cfg: EvalConfig) -> None:
    """Raise AlphaBelowRoot if alpha is below the psi_q root by more than 1e-9."""
    root = cached_psi_root(q, cfg)
    if alpha < root - 1e-9:
        raise AlphaBelowRoot(alpha, root)


def thm_main_bounds(
    x: float, y: float, q: QParam, cfg: EvalConfig = DEFAULT_CONFIG, force: bool = False
) -> BoundPair:
    """Geometric-convexity bounds on Gamma_q(x)/Gamma_q(y) for x, y >= 1.

    Log form: s(t) * (log x - log y) + (q^x - q^y)/(1 - q), with the slope
    s(t) = t * (d[t]_q/dt + psi_q(t)) taken at t = y for the lower bound and
    t = x for the upper.
    """
    require_positive(x)
    require_positive(y, "y")
    if not force and (x < 1.0 or y < 1.0):
        raise DomainError(f"requires x >= 1 and y >= 1, got x={x!r}, y={y!r}")
    ldiff = math.log(x) - math.log(y)
    shift = _f_offset(x, y, q)
    slope_y = _f_slope(y, q, cfg)
    slope_x = _f_slope(x, q, cfg)
    log_ratio = ln_gamma_q(x, q, cfg, y=y).value
    return _pair(slope_y * ldiff + shift, log_ratio, slope_x * ldiff + shift, strict=False)


def cor_half_shift_bounds(x: float, q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> BoundPair:
    """The main bounds specialized to the ratio Gamma_q(x+1)/Gamma_q(x+1/2).

    Defined for x > 0 by substitution; equality with thm_main_bounds at
    (x+1, x+1/2) is an identity of this implementation, not an approximation.
    """
    require_positive(x)
    return thm_main_bounds(x + 1.0, x + 0.5, q, cfg, force=True)


def thm_alpha_bounds(
    x: float,
    y: float,
    alpha: float,
    q: QParam,
    cfg: EvalConfig = DEFAULT_CONFIG,
    force: bool = False,
) -> BoundPair:
    """Shifted-argument bounds on Gamma_q(x+a)/Gamma_q(y+a) for a >= x*.

    x* is the positive root of psi_q; alpha below it (beyond a 1e-9 grace)
    raises AlphaBelowRoot unless force is set for exploratory evaluation.
    The ratio is taken at the rounded sums x + alpha and y + alpha, so the
    bounds are taken at the arguments those sums carry, (x + alpha) - alpha
    and (y + alpha) - alpha; where one of them rounds to <= 0 (x below about
    one ulp of alpha), DomainError is raised.
    """
    require_positive(x)
    require_positive(y, "y")
    if not force:
        _require_alpha(alpha, q, cfg)
    x_alpha = x + alpha
    y_alpha = y + alpha
    x_eff = x_alpha - alpha
    y_eff = y_alpha - alpha
    if not (x_eff > 0.0 and y_eff > 0.0):
        raise DomainError(
            f"x={x!r} and y={y!r} are lost in x + alpha and y + alpha at alpha={alpha!r}: "
            f"the sums carry {x_eff!r} and {y_eff!r}"
        )
    x, y = x_eff, y_eff
    common = _g_offset(x, y, alpha)
    ldiff = math.log(x) - math.log(y)
    slope_y = _g_slope(y, alpha, q, cfg)
    slope_x = _g_slope(x, alpha, q, cfg)
    log_ratio = ln_gamma_q(x_alpha, q, cfg, y=y_alpha).value
    return _pair(common + slope_y * ldiff, log_ratio, common + slope_x * ldiff, strict=False)


def thm_mvt_bounds(
    x: float, y: float, q: QParam, cfg: EvalConfig = DEFAULT_CONFIG, force: bool = False
) -> BoundPair:
    """Mean-value bounds: (x-y) psi_q(y) < ln ratio < (x-y) psi_q(x), x > y > 0."""
    require_positive(x)
    require_positive(y, "y")
    if not force and not x > y:
        raise DomainError(f"requires x > y, got x={x!r}, y={y!r}")
    gap = x - y
    log_lower = gap * psi_q(y, q, cfg).value
    log_upper = gap * psi_q(x, q, cfg).value
    log_ratio = ln_gamma_q(x, q, cfg, y=y).value
    return _pair(log_lower, log_ratio, log_upper, strict=True)


def cor_mu_lambda_bounds(
    x: float,
    mu: float,
    lam: float,
    q: QParam,
    cfg: EvalConfig = DEFAULT_CONFIG,
    force: bool = False,
) -> BoundPair:
    """Mean-value bounds for Gamma_q(x+mu)/Gamma_q(x+lambda), mu > lambda > 0."""
    if not force:
        require_positive(lam, "lambda")
        if not mu > lam:
            raise DomainError(f"requires mu > lambda, got mu={mu!r}, lambda={lam!r}")
        require_positive(x)
    return thm_mvt_bounds(x + mu, x + lam, q, cfg, force=force)


def cor_one_half_bounds(x: float, q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> BoundPair:
    """Mean-value bounds for Gamma_q(x+1)/Gamma_q(x+1/2), x > 0."""
    require_positive(x)
    return thm_mvt_bounds(x + 1.0, x + 0.5, q, cfg)


def remark_rearranged_bounds(x: float, q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> BoundPair:
    """Rearranged half-shift bounds on Gamma_q(x)/Gamma_q(x+1/2).

    Every component is the corresponding cor_one_half component divided by
    [x]_q, exactly as the functional equation Gamma_q(x+1) = [x]_q Gamma_q(x)
    rearranges the displayed inequality.
    """
    inner = cor_one_half_bounds(x, q, cfg)
    bracket = q_bracket(x, q)
    log_bracket = math.log(bracket)
    lower = inner.lower / bracket
    ratio = inner.ratio / bracket
    upper = inner.upper / bracket
    log_lower = inner.log_lower - log_bracket
    log_ratio = inner.log_ratio - log_bracket
    log_upper = inner.log_upper - log_bracket
    return new_record(
        BoundPair, (lower, ratio, upper, ratio - lower, upper - ratio, inner.strict, log_lower, log_ratio, log_upper)
    )


def keckic_vasic_bounds(x: float, y: float, force: bool = False) -> BoundPair:
    """Classical power-exponential bounds on Gamma(x)/Gamma(y) for x >= y > 1."""
    require_positive(x)
    require_positive(y, "y")
    if not force and not (x >= y > 1.0):
        raise DomainError(f"requires x >= y > 1, got x={x!r}, y={y!r}")
    lx = math.log(x)
    ly = math.log(y)
    log_lower = (x - 1.0) * lx - (y - 1.0) * ly + (y - x)
    log_upper = (x - 0.5) * lx - (y - 0.5) * ly + (y - x)
    log_ratio = ln_gamma_classical(x).value - ln_gamma_classical(y).value
    return _pair(log_lower, log_ratio, log_upper, strict=False)


def zhang_xu_situ_bounds(x: float, y: float) -> BoundPair:
    """Classical geometric-convexity bounds on Gamma(x)/Gamma(y) for x, y > 0."""
    require_positive(x)
    require_positive(y, "y")
    lx = math.log(x)
    ly = math.log(y)
    ldiff = lx - ly
    base = x * lx - y * ly + (y - x)
    log_lower = base + y * (psi_classical(y).value - ly) * ldiff
    log_upper = base + x * (psi_classical(x).value - lx) * ldiff
    log_ratio = ln_gamma_classical(x).value - ln_gamma_classical(y).value
    return _pair(log_lower, log_ratio, log_upper, strict=False)


# --------------------------------------------------------------------------
# Root cache, sampling domains and the inequality registry
# --------------------------------------------------------------------------

# psi_q root per (q, max_terms), kept for the life of the process: a second
# run in the same process reuses the roots of the first.  Keyed by the exact
# float and the cap, so a capped solve never depends on what ran before;
# concurrent initialization at worst recomputes the same value.
# Unbounded on purpose: ``sample`` solves the root of every drawn point
# before ``certify`` reads them all back, so a bound below the sample count
# would solve each root twice; ``table`` rows share one q and hit it.
_ROOT_CACHE: dict[Tuple[float, int], float] = {}


def cached_psi_root(q: QParam, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    key = (q.q, cfg.max_terms)
    root = _ROOT_CACHE.get(key)
    if root is None:
        root = psi_q_root(q, cfg).root
        _ROOT_CACHE[key] = root
    return root


# Every sampling constraint, with the ranges it draws from.
_CONSTRAINTS = {
    "none": (),
    "x_greater_than_y": ("y_range",),
    "mu_greater_than_lambda": ("aux_range",),
    "alpha_at_least_root": ("aux_range", "q_range"),
}


class _DomainSpecFields(NamedTuple):
    x_range: Tuple[float, float]
    y_range: Optional[Tuple[float, float]]
    q_range: Optional[Tuple[float, float]]
    aux_range: Optional[Tuple[float, float]]
    constraint: str


class DomainSpec(_DomainSpecFields):
    """Sampling region for one inequality.

    ``aux_range`` holds the alpha offset above the psi_q root when the
    constraint is alpha_at_least_root, and the common (mu, lambda) range
    when it is mu_greater_than_lambda.  ``q_range`` is None for the
    classical inequalities.  Every construction path, ``_replace`` and
    ``_make`` included, checks the ranges and the constraint.
    """

    __slots__ = ()

    def __new__(
        cls,
        x_range: Tuple[float, float],
        y_range: Optional[Tuple[float, float]] = None,
        q_range: Optional[Tuple[float, float]] = (0.05, 0.95),
        aux_range: Optional[Tuple[float, float]] = None,
        constraint: str = "none",
    ):
        for name, rng in (("x_range", x_range), ("y_range", y_range), ("aux_range", aux_range)):
            if rng is not None and not rng[0] <= rng[1]:
                raise DomainError(f"{name} is empty: {rng!r}")
        if q_range is not None and not (0.0 < q_range[0] <= q_range[1] < 1.0):
            raise DomainError(f"q_range must sit inside (0, 1), got {q_range!r}")
        if constraint not in _CONSTRAINTS:
            raise DomainError(f"unknown constraint {constraint!r}")
        self = tuple.__new__(cls, (x_range, y_range, q_range, aux_range, constraint))
        missing = [name for name in _CONSTRAINTS[constraint] if getattr(self, name) is None]
        if missing:
            raise DomainError(f"constraint {constraint!r} requires " + ", ".join(missing))
        return self

    @classmethod
    def _make(cls, iterable) -> DomainSpec:
        return cls(*iterable)


class Inequality(NamedTuple):
    """Point slots and default sampling domain of one inequality.

    ``args`` names the slots in the order the inequality's ``*_bounds``
    operation takes them, with ``q`` last when it takes one.  Slots other
    than x, y and q travel in a sampled point's aux field: the value
    itself for one slot, a tuple in slot order for several.
    """

    args: Tuple[str, ...]
    domain: DomainSpec


_Q_DEFAULT = (0.05, 0.95)

INEQUALITIES: dict[str, Inequality] = {
    "thm_main": Inequality(("x", "y", "q"), DomainSpec((1.0, 30.0), (1.0, 30.0), _Q_DEFAULT)),
    "cor_half_shift": Inequality(("x", "q"), DomainSpec((0.05, 30.0), None, _Q_DEFAULT)),
    "thm_alpha": Inequality(
        ("x", "y", "alpha", "q"),
        DomainSpec((0.05, 20.0), (0.05, 20.0), _Q_DEFAULT, (0.0, 10.0), "alpha_at_least_root"),
    ),
    "thm_mvt": Inequality(
        ("x", "y", "q"), DomainSpec((0.05, 30.0), (0.05, 30.0), _Q_DEFAULT, None, "x_greater_than_y")
    ),
    "cor_mu_lambda": Inequality(
        ("x", "mu", "lam", "q"),
        DomainSpec((0.05, 30.0), None, _Q_DEFAULT, (0.05, 5.0), "mu_greater_than_lambda"),
    ),
    "cor_one_half": Inequality(("x", "q"), DomainSpec((0.05, 30.0), None, _Q_DEFAULT)),
    "remark_rearranged": Inequality(("x", "q"), DomainSpec((0.05, 30.0), None, _Q_DEFAULT)),
    "keckic_vasic": Inequality(
        ("x", "y"), DomainSpec((1.0 + 1e-6, 30.0), (1.0 + 1e-6, 30.0), None, None, "x_greater_than_y")
    ),
    # Capped at 8.  The margin is quadratic in |x - y| near the diagonal with
    # curvature ~1/(12 y^3); the classical evaluation's error (~1e-14, from
    # rounding alone) does not limit the domain, so the cap only fixes the
    # certified region, and widening it needs its own sampled evidence.
    "zhang_xu_situ": Inequality(("x", "y"), DomainSpec((0.05, 8.0), (0.05, 8.0), None)),
}

INEQUALITY_IDS = tuple(INEQUALITIES)


def default_domain(inequality_id: str) -> DomainSpec:
    try:
        return INEQUALITIES[inequality_id].domain
    except KeyError:
        raise DomainError(f"unknown inequality id {inequality_id!r}") from None
