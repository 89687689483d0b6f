"""Seeded sampling of inequality domains and certification of every claim.

``sample`` turns a DomainSpec into a reproducible point batch, ``certify``
evaluates one inequality over a batch, and the ``check_*`` functions cover
the geometric-convexity, slope-monotonicity and q->1 limit properties.  The
registry at the bottom maps every check id to a runner so a single call can
exercise the complete suite.

Evaluation is sequential and reports depend only on (seed, spec, cfg);
wall_time is the one field that varies between runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .classical import EULER_GAMMA, ln_gamma_classical, psi_classical
from .constants import CERT_SLACK_LOG, CONVEXITY_SLACK_LOG, MIN_PAIR_GAP, SLOPE_SLACK
from .errors import AlphaBelowRoot, DomainError, QGammaError, RejectionOverflow
from .qcore import DEFAULT_CONFIG, EvalConfig, QParam, q_bracket, q_bracket_derivative
from .qspecial import gamma_q, ln_gamma_q, psi_q, euler_gamma_q
from .bounds import (
    BoundPair,
    DomainSpec,
    INEQUALITY_IDS,
    _safe_exp,
    cached_psi_root,
    cor_half_shift_bounds,
    cor_mu_lambda_bounds,
    cor_one_half_bounds,
    default_domain,
    keckic_vasic_bounds,
    remark_rearranged_bounds,
    thm_alpha_bounds,
    thm_main_bounds,
    thm_mvt_bounds,
    zhang_xu_situ_bounds,
)

SCHEMA_VERSION = 1

_LN_HALF = math.log(0.5)
_FAILURE_CAP = 100
_REJECTION_CAP = 1000

Point = Tuple[Optional[float], Optional[float], Optional[float], object]


@dataclass(frozen=True)
class SampleBatch:
    """Deterministic point batch: same (seed, count, spec) => same points."""

    seed: int
    count: int
    points: tuple


@dataclass(frozen=True)
class CertificateReport:
    """Per-check pass/fail statistics with worst log-space margins."""

    inequality_id: str
    n_samples: int
    n_pass: int
    worst_lower_margin: float
    worst_upper_margin: float
    failures: tuple
    wall_time: float


def _draw(rng: np.random.Generator, interval: Tuple[float, float]) -> float:
    return float(rng.uniform(interval[0], interval[1]))


def _draw_q(rng: np.random.Generator, q_range: Tuple[float, float]) -> float:
    lo, hi = q_range
    # Log-uniform in 1-q when the range spans more than a decade of 1-q,
    # so both the q->0 and q->1 regimes get stressed.
    if (1.0 - lo) / (1.0 - hi) > 10.0:
        return 1.0 - math.exp(rng.uniform(math.log(1.0 - hi), math.log(1.0 - lo)))
    return _draw(rng, q_range)


def sample(spec: DomainSpec, seed: int, count: int) -> SampleBatch:
    """Draw ``count`` points from ``spec`` with rejection on its constraint."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
    rng = np.random.default_rng(seed)
    points = []
    for index in range(count):
        for _ in range(_REJECTION_CAP):
            x = _draw(rng, spec.x_range)
            y = _draw(rng, spec.y_range) if spec.y_range is not None else None
            q = _draw_q(rng, spec.q_range) if spec.q_range is not None else None
            aux = None
            if spec.constraint == "alpha_at_least_root":
                offset = _draw(rng, spec.aux_range)
                aux = cached_psi_root(QParam(q)) + offset
            elif spec.constraint == "mu_greater_than_lambda":
                mu = _draw(rng, spec.aux_range)
                lam = _draw(rng, spec.aux_range)
                if not mu > lam + MIN_PAIR_GAP:
                    continue
                aux = (mu, lam)
            elif spec.aux_range is not None:
                aux = _draw(rng, spec.aux_range)
            if spec.constraint == "x_greater_than_y" and not x > y + MIN_PAIR_GAP:
                continue
            points.append((x, y, q, aux))
            break
        else:
            raise RejectionOverflow(
                f"constraint {spec.constraint!r} not satisfied within "
                f"{_REJECTION_CAP} draws at point {index}"
            )
    return SampleBatch(seed=seed, count=count, points=tuple(points))


def _point_dict(point: Point) -> dict:
    x, y, q, aux = point
    return {"x": x, "y": y, "q": q, "aux": aux}


def evaluate_point(
    inequality_id: str,
    point: Point,
    cfg: EvalConfig = DEFAULT_CONFIG,
    force: bool = False,
) -> BoundPair:
    """Evaluate one inequality's BoundPair at a sampled point."""
    x, y, q, aux = point
    if inequality_id == "thm_main":
        return thm_main_bounds(x, y, QParam(q), cfg, force=force)
    if inequality_id == "cor_half_shift":
        return cor_half_shift_bounds(x, QParam(q), cfg)
    if inequality_id == "thm_alpha":
        return thm_alpha_bounds(x, y, aux, QParam(q), cfg, force=force)
    if inequality_id == "thm_mvt":
        return thm_mvt_bounds(x, y, QParam(q), cfg, force=force)
    if inequality_id == "cor_mu_lambda":
        mu, lam = aux
        return cor_mu_lambda_bounds(x, mu, lam, QParam(q), cfg, force=force)
    if inequality_id == "cor_one_half":
        return cor_one_half_bounds(x, QParam(q), cfg)
    if inequality_id == "remark_rearranged":
        return remark_rearranged_bounds(x, QParam(q), cfg)
    if inequality_id == "keckic_vasic":
        return keckic_vasic_bounds(x, y, force=force)
    if inequality_id == "zhang_xu_situ":
        return zhang_xu_situ_bounds(x, y, force=force)
    raise DomainError(f"unknown inequality id {inequality_id!r}")


def certify(
    inequality_id: str,
    batch: SampleBatch,
    cfg: EvalConfig = DEFAULT_CONFIG,
    corrupt_upper: bool = False,
) -> CertificateReport:
    """Check lower <= ratio <= upper (log space, 1e-9 slack) over a batch.

    Evaluation errors at a point are recorded as failures, never skipped.
    ``corrupt_upper`` halves every upper bound; it exists so the harness can
    prove to itself that it is able to fail.
    """
    if inequality_id not in INEQUALITY_IDS:
        raise DomainError(f"unknown inequality id {inequality_id!r}")
    return _certify_points(inequality_id, inequality_id, batch, cfg, corrupt_upper=corrupt_upper)


def _certify_points(
    inequality_id: str,
    report_id: str,
    batch: SampleBatch,
    cfg: EvalConfig,
    force: bool = False,
    corrupt_upper: bool = False,
) -> CertificateReport:
    """The per-point loop behind ``certify`` and ``explore_main_below_one``."""
    start = time.perf_counter()
    n_pass = 0
    failures = []
    worst_lower = math.inf
    worst_upper = math.inf
    for point in batch.points:
        try:
            pair = evaluate_point(inequality_id, point, cfg, force=force)
        except QGammaError as exc:
            if len(failures) < _FAILURE_CAP:
                failures.append({"point": _point_dict(point), "error": str(exc)})
            continue
        log_upper = pair.log_upper + _LN_HALF if corrupt_upper else pair.log_upper
        lower_margin = pair.log_ratio - pair.log_lower
        upper_margin = log_upper - pair.log_ratio
        worst_lower = min(worst_lower, lower_margin)
        worst_upper = min(worst_upper, upper_margin)
        if lower_margin >= -CERT_SLACK_LOG and upper_margin >= -CERT_SLACK_LOG:
            n_pass += 1
        elif len(failures) < _FAILURE_CAP:
            failures.append(
                {
                    "point": _point_dict(point),
                    "lower": _safe_exp(pair.log_lower),
                    "ratio": pair.ratio,
                    "upper": _safe_exp(log_upper),
                }
            )
    return CertificateReport(
        inequality_id=report_id,
        n_samples=len(batch.points),
        n_pass=n_pass,
        worst_lower_margin=worst_lower,
        worst_upper_margin=worst_upper,
        failures=tuple(failures),
        wall_time=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------
# Convexity, slope and limit checks
# --------------------------------------------------------------------------

CONVEXITY_FUNCTIONS = ("f_thm_main", "g_thm_alpha")


def _ln_f(function_id: str, q: QParam, aux, cfg: EvalConfig) -> Callable[[float], float]:
    """Log of the proof function: f(x) = e^[x]_q Gamma_q(x) on [1, inf),
    or g(x) = e^x Gamma_q(x+a) / (x+a) on (0, inf) with a >= root."""
    if function_id == "f_thm_main":
        return lambda t: q_bracket(t, q) + ln_gamma_q(t, q, cfg).value
    if function_id == "g_thm_alpha":
        alpha = float(aux)
        root = cached_psi_root(q, cfg)
        if alpha < root - 1e-9:
            raise AlphaBelowRoot(alpha, root)
        return lambda t: t + ln_gamma_q(t + alpha, q, cfg).value - math.log(t + alpha)
    raise DomainError(f"unknown convexity function {function_id!r}")


def _slope(function_id: str, q: QParam, aux, cfg: EvalConfig) -> Callable[[float], float]:
    """Closed form of x (ln f)'(x) for the same two proof functions."""
    if function_id == "f_thm_main":
        return lambda t: t * (q_bracket_derivative(t, q) + psi_q(t, q, cfg).value)
    if function_id == "g_thm_alpha":
        alpha = float(aux)
        root = cached_psi_root(q, cfg)
        if alpha < root - 1e-9:
            raise AlphaBelowRoot(alpha, root)
        return lambda t: t * (1.0 + psi_q(t + alpha, q, cfg).value - 1.0 / (t + alpha))
    raise DomainError(f"unknown convexity function {function_id!r}")


def check_geometric_convexity(
    function_id: str,
    batch: SampleBatch,
    q: QParam,
    aux=None,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> CertificateReport:
    """Verify ln f(sqrt(x1 x2)) <= (ln f(x1) + ln f(x2)) / 2 over a pair batch.

    Pairs come from the (x, y) slots of the batch.  The one-sided midpoint
    margin is reported in both worst-margin fields.
    """
    start = time.perf_counter()
    ln_f = _ln_f(function_id, q, aux, cfg)
    n_pass = 0
    failures = []
    worst = math.inf
    for point in batch.points:
        x1, x2 = point[0], point[1]
        try:
            if function_id == "f_thm_main" and (x1 < 1.0 or x2 < 1.0):
                raise DomainError(f"pair ({x1!r}, {x2!r}) outside [1, inf)")
            margin = 0.5 * (ln_f(x1) + ln_f(x2)) - ln_f(math.sqrt(x1 * x2))
        except QGammaError as exc:
            if len(failures) < _FAILURE_CAP:
                failures.append({"point": _point_dict(point), "error": str(exc)})
            continue
        worst = min(worst, margin)
        if margin >= -CONVEXITY_SLACK_LOG:
            n_pass += 1
        elif len(failures) < _FAILURE_CAP:
            failures.append({"point": _point_dict(point), "margin": margin})
    return CertificateReport(
        inequality_id=f"convexity_{function_id}",
        n_samples=len(batch.points),
        n_pass=n_pass,
        worst_lower_margin=worst,
        worst_upper_margin=worst,
        failures=tuple(failures),
        wall_time=time.perf_counter() - start,
    )


def check_lemma_monotone_slope(
    function_id: str,
    grid: Sequence[float],
    q: QParam,
    aux=None,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> CertificateReport:
    """Verify x (ln f)'(x) is nondecreasing along a strictly increasing grid."""
    grid = [float(t) for t in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("grid must be strictly increasing")
    start = time.perf_counter()
    slope = _slope(function_id, q, aux, cfg)
    values = [slope(t) for t in grid]
    n_pass = 0
    failures = []
    worst = math.inf
    for i, (a, b) in enumerate(zip(values, values[1:])):
        margin = b - a
        worst = min(worst, margin)
        if margin >= -SLOPE_SLACK:
            n_pass += 1
        elif len(failures) < _FAILURE_CAP:
            failures.append({"point": {"x": grid[i], "y": grid[i + 1], "q": q.q, "aux": aux}, "margin": margin})
    return CertificateReport(
        inequality_id=f"slope_{function_id}",
        n_samples=max(len(grid) - 1, 0),
        n_pass=n_pass,
        worst_lower_margin=worst,
        worst_upper_margin=worst,
        failures=tuple(failures),
        wall_time=time.perf_counter() - start,
    )


_LIMIT_REL_TOL = 5e-2


def check_limits(
    q_sequence: Sequence[float],
    x_grid: Sequence[float],
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> CertificateReport:
    """Verify Gamma_q -> Gamma, psi_q -> psi and gamma_q -> gamma as q -> 1.

    For each x the absolute deviations must decrease strictly along
    q_sequence and the terminal relative deviation must be <= 5e-2.
    """
    q_sequence = [float(q) for q in q_sequence]
    if any(b <= a for a, b in zip(q_sequence, q_sequence[1:])):
        raise DomainError("q_sequence must be strictly increasing")
    if max(q_sequence) > 0.9995:
        raise DomainError("q_sequence must stay <= 0.9995")
    start = time.perf_counter()
    n_samples = 0
    n_pass = 0
    failures = []
    worst = math.inf

    def run_track(label: str, deviations: Sequence[float], reference: float):
        nonlocal n_samples, n_pass, worst
        for i, (a, b) in enumerate(zip(deviations, deviations[1:])):
            n_samples += 1
            margin = a - b
            worst = min(worst, margin)
            if margin > 0.0:
                n_pass += 1
            elif len(failures) < _FAILURE_CAP:
                failures.append({"point": {"track": label, "q": q_sequence[i + 1]}, "margin": margin})
        n_samples += 1
        terminal = deviations[-1] / max(abs(reference), 1e-300)
        margin = _LIMIT_REL_TOL - terminal
        worst = min(worst, margin)
        if margin >= 0.0:
            n_pass += 1
        elif len(failures) < _FAILURE_CAP:
            failures.append({"point": {"track": label, "q": q_sequence[-1]}, "terminal": terminal})

    for x in x_grid:
        gamma_ref = math.exp(ln_gamma_classical(x).value)
        psi_ref = psi_classical(x).value
        gamma_devs = [abs(gamma_q(x, QParam(q), cfg).value - gamma_ref) for q in q_sequence]
        psi_devs = [abs(psi_q(x, QParam(q), cfg).value - psi_ref) for q in q_sequence]
        run_track(f"gamma@x={x}", gamma_devs, gamma_ref)
        run_track(f"psi@x={x}", psi_devs, psi_ref)
    euler_devs = [abs(euler_gamma_q(QParam(q), cfg).value - EULER_GAMMA) for q in q_sequence]
    run_track("euler_gamma", euler_devs, EULER_GAMMA)

    return CertificateReport(
        inequality_id="limits",
        n_samples=n_samples,
        n_pass=n_pass,
        worst_lower_margin=worst,
        worst_upper_margin=worst,
        failures=tuple(failures),
        wall_time=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------
# Registry: every certified claim, one runner per check id
# --------------------------------------------------------------------------

_CHECK_Q_GRID = (0.05, 0.25, 0.5, 0.75, 0.95)
_ALPHA_OFFSETS = (0.0, 1.0, 5.0)
_LIMIT_Q_SEQUENCE = (0.9, 0.99, 0.999)
_LIMIT_X_GRID = (0.5, 1.5, 2.5, 4.0)

_CONVEXITY_DOMAIN_F = DomainSpec((1.0, 20.0), (1.0, 20.0), None)
_CONVEXITY_DOMAIN_G = DomainSpec((0.05, 10.0), (0.05, 10.0), None)

EXTRA_CHECK_IDS = (
    "convexity_f_thm_main",
    "convexity_g_thm_alpha",
    "slope_f_thm_main",
    "slope_g_thm_alpha",
    "limits",
)

ALL_CHECK_IDS = INEQUALITY_IDS + EXTRA_CHECK_IDS


def _merge_reports(check_id: str, reports: Sequence[CertificateReport]) -> CertificateReport:
    failures = []
    for rep in reports:
        failures.extend(rep.failures[: _FAILURE_CAP - len(failures)])
    return CertificateReport(
        inequality_id=check_id,
        n_samples=sum(r.n_samples for r in reports),
        n_pass=sum(r.n_pass for r in reports),
        worst_lower_margin=min(r.worst_lower_margin for r in reports),
        worst_upper_margin=min(r.worst_upper_margin for r in reports),
        failures=tuple(failures),
        wall_time=sum(r.wall_time for r in reports),
    )


def _run_convexity(function_id: str, seed: int, samples: int, cfg: EvalConfig) -> CertificateReport:
    reports = []
    if function_id == "f_thm_main":
        combos = [(q, None) for q in _CHECK_Q_GRID]
        domain = _CONVEXITY_DOMAIN_F
    else:
        combos = [(q, off) for q in _CHECK_Q_GRID for off in _ALPHA_OFFSETS]
        domain = _CONVEXITY_DOMAIN_G
    per_combo = max(1, -(-samples // len(combos)))
    for i, (q, offset) in enumerate(combos):
        qp = QParam(q)
        aux = None if offset is None else cached_psi_root(qp) + offset
        batch = sample(domain, seed + i, per_combo)
        reports.append(check_geometric_convexity(function_id, batch, qp, aux, cfg))
    return _merge_reports(f"convexity_{function_id}", reports)


def _run_slope(function_id: str, seed: int, samples: int, cfg: EvalConfig) -> CertificateReport:
    reports = []
    if function_id == "f_thm_main":
        combos = [(q, None) for q in _CHECK_Q_GRID]
        lo, hi = 1.0, 10.0
    else:
        combos = [(q, off) for q in _CHECK_Q_GRID for off in _ALPHA_OFFSETS]
        lo, hi = 0.05, 10.0
    # One extra grid point per combo so comparison counts reach ``samples``.
    per_combo = max(2, -(-samples // len(combos)) + 1)
    for q, offset in combos:
        qp = QParam(q)
        aux = None if offset is None else cached_psi_root(qp) + offset
        grid = np.linspace(lo, hi, per_combo)
        reports.append(check_lemma_monotone_slope(function_id, grid, qp, aux, cfg))
    return _merge_reports(f"slope_{function_id}", reports)


def run_check(
    check_id: str,
    seed: int = 42,
    samples: int = 1000,
    cfg: EvalConfig = DEFAULT_CONFIG,
    corrupt_upper: bool = False,
) -> CertificateReport:
    """Run one registered check; inequality ids honor ``corrupt_upper``."""
    if check_id in INEQUALITY_IDS:
        batch = sample(default_domain(check_id), seed, samples)
        return certify(check_id, batch, cfg, corrupt_upper=corrupt_upper)
    if check_id == "convexity_f_thm_main":
        return _run_convexity("f_thm_main", seed, samples, cfg)
    if check_id == "convexity_g_thm_alpha":
        return _run_convexity("g_thm_alpha", seed, samples, cfg)
    if check_id == "slope_f_thm_main":
        return _run_slope("f_thm_main", seed, samples, cfg)
    if check_id == "slope_g_thm_alpha":
        return _run_slope("g_thm_alpha", seed, samples, cfg)
    if check_id == "limits":
        return check_limits(_LIMIT_Q_SEQUENCE, _LIMIT_X_GRID, cfg)
    raise DomainError(f"unknown check id {check_id!r}")


def run_all_checks(
    seed: int = 42,
    samples: int = 1000,
    cfg: EvalConfig = DEFAULT_CONFIG,
    corrupt_upper: bool = False,
    check_ids: Sequence[str] = ALL_CHECK_IDS,
) -> list[CertificateReport]:
    return [run_check(cid, seed, samples, cfg, corrupt_upper) for cid in check_ids]


# --------------------------------------------------------------------------
# Exploratory sweep outside the proven domain (reported, never certified)
# --------------------------------------------------------------------------

def explore_main_below_one(
    seed: int = 42,
    samples: int = 1000,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> CertificateReport:
    """Sample the main bounds with arguments allowed below 1.

    The main double inequality is only stated for x, y >= 1; whether it
    extends below is open.  This sweep records worst margins and any
    violations found, and is deliberately not part of the certification
    registry: findings here are observations, not failures.
    """
    spec = DomainSpec((0.05, 5.0), (0.05, 5.0), (0.05, 0.95))
    batch = sample(spec, seed, samples)
    return _certify_points("thm_main", "exploratory_thm_main_below_one", batch, cfg, force=True)


# --------------------------------------------------------------------------
# Report serialization
# --------------------------------------------------------------------------

def report_to_dict(report: CertificateReport) -> dict:
    """JSON form; schema documented in the cli module."""
    return {
        "schema_version": SCHEMA_VERSION,
        "inequality_id": report.inequality_id,
        "n_samples": report.n_samples,
        "n_pass": report.n_pass,
        "worst_lower_margin": report.worst_lower_margin,
        "worst_upper_margin": report.worst_upper_margin,
        "failures": list(report.failures),
        "wall_time_s": report.wall_time,
    }


def report_to_text(report: CertificateReport) -> str:
    """Key-value text form, one finding per line."""
    lines = [
        f"inequality_id: {report.inequality_id}",
        f"n_samples: {report.n_samples}",
        f"n_pass: {report.n_pass}",
        f"worst_lower_margin: {report.worst_lower_margin:.17g}",
        f"worst_upper_margin: {report.worst_upper_margin:.17g}",
        f"wall_time_s: {report.wall_time:.6f}",
    ]
    for failure in report.failures:
        parts = " ".join(f"{k}={v!r}" for k, v in failure.items())
        lines.append(f"failure: {parts}")
    return "\n".join(lines)
