"""Seeded sampling of inequality domains and certification of every claim.

``sample`` turns a DomainSpec into a reproducible point batch, ``certify``
evaluates one inequality over a batch, and the ``check_*`` functions cover
the geometric-convexity, slope-monotonicity and q->1 limit properties, the
first two by the log ratios, slopes and alpha rule of the theorems in
``bounds``.  The registry at the bottom maps every check id to a runner so a
single call can exercise the complete suite.

Points are drawn from the standard library's ``random.Random(seed)``
(Mersenne Twister) with integer seeds >= 0, and slope grids are evenly
spaced as ``linspace`` makes them, so the module needs nothing beyond the
standard library.  Evaluation is sequential and reports depend only on
(seed, spec, cfg); wall_time is the one field that varies between runs.
SampleBatch and CertificateReport are immutable NamedTuple records (see
``qcore``): they unpack, index and compare equal to plain tuples, and
``report._replace(wall_time=0.0)`` is a report without its timing.
"""

from __future__ import annotations

import math
import random
import time
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .classical import EULER_GAMMA, ln_gamma_classical, psi_classical
from .constants import CONVEXITY_SLACK_LOG, MIN_PAIR_GAP, SLOPE_SLACK
from .errors import AlphaBelowRoot, DomainError, QGammaError, RejectionOverflow
from .qcore import DEFAULT_CONFIG, EvalConfig, QParam
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
    passes,
    remark_rearranged_bounds,
    thm_alpha_bounds,
    thm_main_bounds,
    thm_mvt_bounds,
    zhang_xu_situ_bounds,
)
from .bounds import _f_offset, _f_slope, _g_offset, _g_slope, _require_alpha

SCHEMA_VERSION = 1

_LN_HALF = math.log(0.5)
_FAILURE_CAP = 100
_REJECTION_CAP = 1000

Point = Tuple[Optional[float], Optional[float], Optional[float], object]


class SampleBatch(NamedTuple):
    """Deterministic point batch: same (seed, count, spec) => same points."""

    seed: int
    count: int
    points: tuple


class CertificateReport(NamedTuple):
    """Per-check pass/fail statistics with worst log-space margins.

    ``failures`` is capped; ``n_errors`` counts every point whose
    evaluation raised, whether or not ``failures`` still had room for it.
    """

    inequality_id: str
    n_samples: int
    n_pass: int
    worst_lower_margin: float
    worst_upper_margin: float
    failures: tuple
    wall_time: float
    n_errors: int = 0


class _Tally:
    """Accumulates one CertificateReport, one checked point at a time."""

    def __init__(self, report_id: str):
        self.report_id = report_id
        self.n_samples = self.n_pass = self.n_errors = 0
        self.worst_lower = self.worst_upper = math.inf
        self.failures = []
        self.start = time.perf_counter()

    def add(
        self, lower_margin: float, upper_margin: float, passed: bool, failure: Callable[[], dict]
    ) -> None:
        """Record one evaluated point; ``failure`` builds its finding if it failed."""
        self.n_samples += 1
        self.worst_lower = min(self.worst_lower, lower_margin)
        self.worst_upper = min(self.worst_upper, upper_margin)
        if passed:
            self.n_pass += 1
        elif len(self.failures) < _FAILURE_CAP:
            self.failures.append(failure())

    def error(self, point: dict, exc: QGammaError) -> None:
        """Record one point whose evaluation raised, as a failure."""
        self.n_samples += 1
        self.n_errors += 1
        if len(self.failures) < _FAILURE_CAP:
            self.failures.append({"point": point, "error": str(exc)})

    def errored(self, point: dict, *values) -> bool:
        """Record ``point`` as an error if any of ``values`` is a QGammaError
        caught by ``_attempt``; True if one was."""
        for value in values:
            if isinstance(value, QGammaError):
                self.error(point, value)
                return True
        return False

    def report(self) -> CertificateReport:
        return CertificateReport(
            inequality_id=self.report_id,
            n_samples=self.n_samples,
            n_pass=self.n_pass,
            worst_lower_margin=self.worst_lower,
            worst_upper_margin=self.worst_upper,
            failures=tuple(self.failures),
            wall_time=time.perf_counter() - self.start,
            n_errors=self.n_errors,
        )


def _attempt(fn: Callable, *args):
    """``fn(*args)``, or the QGammaError it raised, so that a value computed
    ahead of its comparisons can be recorded as a failure there."""
    try:
        return fn(*args)
    except QGammaError as exc:
        return exc


def _uniform(rng: random.Random, interval: Tuple[float, float]) -> Callable[[], float]:
    """A draw function for ``interval``: a + (b - a) U with U = rng.random(),
    what rng.uniform(a, b) computes, with b - a formed once."""
    a, b = interval
    width = b - a
    unit = rng.random
    return lambda: a + width * unit()


def _q_draw(rng: random.Random, q_range: Tuple[float, float]) -> Callable[[], float]:
    """A draw function for q: log-uniform in 1 - q when the range spans more
    than a decade of 1 - q, so both the q->0 and q->1 regimes get stressed,
    as 1 - exp(rng.uniform(ln(1 - hi), ln(1 - lo))); uniform otherwise."""
    lo, hi = q_range
    if (1.0 - lo) / (1.0 - hi) > 10.0:
        a = math.log(1.0 - hi)
        width = math.log(1.0 - lo) - a
        unit = rng.random
        exp = math.exp
        return lambda: 1.0 - exp(a + width * unit())
    return _uniform(rng, q_range)


def sample(spec: DomainSpec, seed: int, count: int) -> SampleBatch:
    """Draw ``count`` points from ``spec`` with rejection on its constraint,
    from the stream of ``random.Random(seed)``; alpha sits above the psi_q root
    solved under DEFAULT_CONFIG, so the points depend on the seed alone.

    Each point draws x, then y, then q, then the alpha offset, or mu and
    lambda, or the aux value, each as ``rng.uniform`` over its range would
    (q log-uniform in 1 - q over ranges wider than a decade)."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
    # random.Random(-s) would replay the stream of s.
    if not isinstance(seed, int) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    rng = random.Random(seed)
    draw_x = _uniform(rng, spec.x_range)
    draw_y = _uniform(rng, spec.y_range) if spec.y_range is not None else None
    draw_q = _q_draw(rng, spec.q_range) if spec.q_range is not None else None
    draw_aux = _uniform(rng, spec.aux_range) if spec.aux_range is not None else None
    constraint = spec.constraint
    points = []
    for index in range(count):
        for _ in range(_REJECTION_CAP):
            x = draw_x()
            y = draw_y() if draw_y is not None else None
            q = draw_q() if draw_q is not None else None
            aux = None
            if constraint == "alpha_at_least_root":
                offset = draw_aux()
                aux = cached_psi_root(QParam(q)) + offset
            elif constraint == "mu_greater_than_lambda":
                mu = draw_aux()
                lam = draw_aux()
                if not mu > lam + MIN_PAIR_GAP:
                    continue
                aux = (mu, lam)
            elif draw_aux is not None:
                aux = draw_aux()
            if constraint == "x_greater_than_y" and not x > y + MIN_PAIR_GAP:
                continue
            points.append((x, y, q, aux))
            break
        else:
            raise RejectionOverflow(
                f"constraint {constraint!r} not satisfied within "
                f"{_REJECTION_CAP} draws at point {index}"
            )
    return SampleBatch(seed=seed, count=count, points=tuple(points))


def linspace(lo: float, hi: float, n: int) -> list:
    """``n >= 2`` evenly spaced floats from ``lo`` to ``hi`` inclusive, each
    i * step + lo with step = (hi - lo) / (n - 1), the last exactly ``hi``:
    numpy.linspace's formula, and so its values bit for bit."""
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


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
        return zhang_xu_situ_bounds(x, y)
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
    tally = _Tally(inequality_id)
    for point in batch.points:
        try:
            pair = evaluate_point(inequality_id, point, cfg)
        except QGammaError as exc:
            tally.error(_point_dict(point), exc)
            continue
        log_upper = pair.log_upper + _LN_HALF if corrupt_upper else pair.log_upper
        lower_margin = pair.log_ratio - pair.log_lower
        upper_margin = log_upper - pair.log_ratio
        tally.add(
            lower_margin,
            upper_margin,
            passes(lower_margin, upper_margin),
            lambda: {
                "point": _point_dict(point),
                "lower": _safe_exp(pair.log_lower),
                "ratio": pair.ratio,
                "upper": _safe_exp(log_upper),
            },
        )
    return tally.report()


# --------------------------------------------------------------------------
# Convexity, slope and limit checks
# --------------------------------------------------------------------------

def _proof_function(
    function_id: str, q: QParam, aux, cfg: EvalConfig
) -> Tuple[Callable[[float, float], float], Callable[[float], float]]:
    """Log ratio ln f(t) - ln f(u) and slope t (ln f)'(t) of a proof function:
    f(t) = e^[t]_q Gamma_q(t) on [1, inf), or g(t) = e^t Gamma_q(t+a) / (t+a)
    on (0, inf) with a >= root.  The log ratio is one ln_gamma_q sum less the
    offset of the theorem's bounds, and the slope is the theorem's own.

    A root solve that fails gives functions that raise its error, so that
    each point of the check records it.
    """
    if function_id == "f_thm_main":
        return (
            lambda t, u: ln_gamma_q(t, q, cfg, y=u).value - _f_offset(t, u, q),
            lambda t: _f_slope(t, q, cfg),
        )
    if function_id == "g_thm_alpha":
        alpha = float(aux)
        failure = _attempt(_require_alpha, alpha, q, cfg)
        if isinstance(failure, AlphaBelowRoot):
            raise failure
        if failure is not None:

            def failed(*args: float) -> float:
                raise failure.with_traceback(None)

            return failed, failed
        return (
            lambda t, u: ln_gamma_q(t + alpha, q, cfg, y=u + alpha).value - _g_offset(t, u, alpha),
            lambda t: _g_slope(t, alpha, q, cfg),
        )
    raise DomainError(f"unknown convexity function {function_id!r}")


def check_geometric_convexity(
    function_id: str,
    batch: SampleBatch,
    q: QParam,
    aux=None,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> CertificateReport:
    """Verify ln f(sqrt(x1 x2)) <= (ln f(x1) + ln f(x2)) / 2 over a pair batch.

    Pairs come from the (x, y) slots of the batch.  The midpoint margin,
    (D(x1, m) + D(x2, m)) / 2 with m = sqrt(x1 x2) and D the log ratio of f,
    is reported in both worst-margin fields.
    """
    tally = _Tally(f"convexity_{function_id}")
    log_diff, _ = _proof_function(function_id, q, aux, cfg)
    for point in batch.points:
        x1, x2 = point[0], point[1]
        try:
            if function_id == "f_thm_main" and (x1 < 1.0 or x2 < 1.0):
                raise DomainError(f"pair ({x1!r}, {x2!r}) outside [1, inf)")
            mid = math.sqrt(x1 * x2)
            margin = 0.5 * (log_diff(x1, mid) + log_diff(x2, mid))
        except QGammaError as exc:
            tally.error(_point_dict(point), exc)
            continue
        tally.add(
            margin,
            margin,
            margin >= -CONVEXITY_SLACK_LOG,
            lambda: {"point": _point_dict(point), "margin": margin},
        )
    return tally.report()


def check_lemma_monotone_slope(
    function_id: str,
    grid: Sequence[float],
    q: QParam,
    aux=None,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> CertificateReport:
    """Verify x (ln f)'(x) is nondecreasing along a strictly increasing grid.

    A slope that fails to evaluate makes each comparison it enters a
    recorded error.
    """
    grid = [float(t) for t in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("grid must be strictly increasing")
    tally = _Tally(f"slope_{function_id}")
    _, slope = _proof_function(function_id, q, aux, cfg)
    values = [_attempt(slope, t) for t in grid]
    for i, (a, b) in enumerate(zip(values, values[1:])):
        point = {"x": grid[i], "y": grid[i + 1], "q": q.q, "aux": aux}
        if tally.errored(point, a, b):
            continue
        margin = b - a
        tally.add(
            margin,
            margin,
            margin >= -SLOPE_SLACK,
            lambda: {"point": point, "margin": margin},
        )
    return tally.report()


_LIMIT_REL_TOL = 5e-2


def check_limits(
    q_sequence: Sequence[float],
    x_grid: Sequence[float],
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> CertificateReport:
    """Verify Gamma_q -> Gamma, psi_q -> psi and gamma_q -> gamma as q -> 1.

    For each x the absolute deviations must decrease strictly along
    q_sequence and the terminal relative deviation must be <= 5e-2.  A
    q-value that fails to evaluate makes each comparison it enters a
    recorded error.
    """
    q_sequence = [float(q) for q in q_sequence]
    if any(b <= a for a, b in zip(q_sequence, q_sequence[1:])):
        raise DomainError("q_sequence must be strictly increasing")
    # Beyond 1 - 1e-5 the deviations reach psi_q's own error: at q = 1 - 1e-6
    # the psi deviation at x = 1.5 no longer falls (5.0e-14 -> 5.7e-13).
    if max(q_sequence) > 0.99999:
        raise DomainError("q_sequence must stay <= 0.99999")
    tally = _Tally("limits")

    def run_track(label: str, evaluations: Sequence, reference: float):
        deviations = [
            ev if isinstance(ev, QGammaError) else abs(ev.value - reference) for ev in evaluations
        ]
        for i, (a, b) in enumerate(zip(deviations, deviations[1:])):
            point = {"track": label, "q": q_sequence[i + 1]}
            if tally.errored(point, a, b):
                continue
            margin = a - b
            tally.add(margin, margin, margin > 0.0, lambda: {"point": point, "margin": margin})
        point = {"track": label, "q": q_sequence[-1]}
        if tally.errored(point, deviations[-1]):
            return
        terminal = deviations[-1] / max(abs(reference), 1e-300)
        margin = _LIMIT_REL_TOL - terminal
        tally.add(margin, margin, margin >= 0.0, lambda: {"point": point, "terminal": terminal})

    for x in x_grid:
        gamma_ref = math.exp(ln_gamma_classical(x).value)
        psi_ref = psi_classical(x).value
        run_track(f"gamma@x={x}", [_attempt(gamma_q, x, QParam(q), cfg) for q in q_sequence], gamma_ref)
        run_track(f"psi@x={x}", [_attempt(psi_q, x, QParam(q), cfg) for q in q_sequence], psi_ref)
    run_track("euler_gamma", [_attempt(euler_gamma_q, QParam(q), cfg) for q in q_sequence], EULER_GAMMA)
    return tally.report()


# --------------------------------------------------------------------------
# Registry: every certified claim, one runner per check id
# --------------------------------------------------------------------------

_CHECK_Q_GRID = (0.05, 0.25, 0.5, 0.75, 0.95)
_ALPHA_OFFSETS = (0.0, 1.0, 5.0)
_LIMIT_Q_SEQUENCE = (0.9, 0.99, 0.999, 0.9999, 0.99999)
_LIMIT_X_GRID = (0.5, 1.5, 2.5, 4.0)

_CONVEXITY_DOMAIN_F = DomainSpec((1.0, 20.0), (1.0, 20.0), None)
_CONVEXITY_DOMAIN_G = DomainSpec((0.05, 10.0), (0.05, 10.0), None)


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
        n_errors=sum(r.n_errors for r in reports),
    )


def _combos(function_id: str) -> list:
    """(q, alpha) pairs a proof function is checked at: every grid q, and for
    g each alpha offset above that q's psi_q root under DEFAULT_CONFIG."""
    if function_id == "f_thm_main":
        return [(QParam(q), None) for q in _CHECK_Q_GRID]
    return [(QParam(q), cached_psi_root(QParam(q)) + off) for q in _CHECK_Q_GRID for off in _ALPHA_OFFSETS]


def _run_convexity(function_id: str, seed: int, samples: int, cfg: EvalConfig) -> CertificateReport:
    domain = _CONVEXITY_DOMAIN_F if function_id == "f_thm_main" else _CONVEXITY_DOMAIN_G
    combos = _combos(function_id)
    per_combo = max(1, -(-samples // len(combos)))
    reports = [
        check_geometric_convexity(function_id, sample(domain, seed + i, per_combo), q, aux, cfg)
        for i, (q, aux) in enumerate(combos)
    ]
    return _merge_reports(f"convexity_{function_id}", reports)


def _run_slope(function_id: str, seed: int, samples: int, cfg: EvalConfig) -> CertificateReport:
    lo, hi = (1.0, 10.0) if function_id == "f_thm_main" else (0.05, 10.0)
    combos = _combos(function_id)
    # One extra grid point per combo so comparison counts reach ``samples``.
    per_combo = max(2, -(-samples // len(combos)) + 1)
    grid = linspace(lo, hi, per_combo)
    reports = [check_lemma_monotone_slope(function_id, grid, q, aux, cfg) for q, aux in combos]
    return _merge_reports(f"slope_{function_id}", reports)


# Runner per check id beyond the inequalities, each called as (seed, samples, cfg).
_EXTRA_CHECKS: dict[str, Callable[[int, int, EvalConfig], CertificateReport]] = {
    "convexity_f_thm_main": partial(_run_convexity, "f_thm_main"),
    "convexity_g_thm_alpha": partial(_run_convexity, "g_thm_alpha"),
    "slope_f_thm_main": partial(_run_slope, "f_thm_main"),
    "slope_g_thm_alpha": partial(_run_slope, "g_thm_alpha"),
    "limits": lambda seed, samples, cfg: check_limits(_LIMIT_Q_SEQUENCE, _LIMIT_X_GRID, cfg),
}

EXTRA_CHECK_IDS = tuple(_EXTRA_CHECKS)

ALL_CHECK_IDS = INEQUALITY_IDS + EXTRA_CHECK_IDS


def run_check(
    check_id: str,
    seed: int = 42,
    samples: int = 1000,
    cfg: EvalConfig = DEFAULT_CONFIG,
    corrupt_upper: bool = False,
) -> CertificateReport:
    """Run one registered check; inequality ids honor ``corrupt_upper``.
    ``samples`` must be >= 1 for every id, including those that ignore it."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples!r}")
    if check_id in INEQUALITY_IDS:
        batch = sample(default_domain(check_id), seed, samples)
        return certify(check_id, batch, cfg, corrupt_upper=corrupt_upper)
    if check_id not in _EXTRA_CHECKS:
        raise DomainError(f"unknown check id {check_id!r}")
    return _EXTRA_CHECKS[check_id](seed, samples, cfg)


# --------------------------------------------------------------------------
# Report serialization
# --------------------------------------------------------------------------

def report_to_dict(report: CertificateReport) -> dict:
    """JSON form; schema documented in the cli module.  A worst margin is
    None (JSON null) when no point was evaluated: it is still math.inf in
    the report, which JSON cannot hold."""
    return {
        "schema_version": SCHEMA_VERSION,
        "inequality_id": report.inequality_id,
        "n_samples": report.n_samples,
        "n_pass": report.n_pass,
        "worst_lower_margin": None if report.worst_lower_margin == math.inf else report.worst_lower_margin,
        "worst_upper_margin": None if report.worst_upper_margin == math.inf else report.worst_upper_margin,
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
