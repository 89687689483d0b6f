"""Seeded sampling of inequality domains and certification of every claim.

``sample`` turns a DomainSpec into a reproducible point batch, ``certify``
evaluates one inequality over a batch, and the ``check_*`` functions cover
the geometric convexity and slope monotonicity of the proof functions f and
g, by the log ratios, slopes and alpha rule of the theorems in ``bounds``,
and the q->1 limits.  One table at the bottom, ``_CHECKS``, gives each check
id its runner: one per inequality, a convexity and a slope check per proof
function (one report over the q and alpha grid of the function's row in
``_PROOF_ROWS``, which holds its log ratio, slope and constants) and the
limit check.

Points are drawn from the standard library's ``random.Random(seed)``
(Mersenne Twister) with integer seeds >= 0, and slope grids are evenly
spaced as ``linspace`` makes them, so the module needs nothing beyond the
standard library.  Evaluation is sequential and reports depend only on
(seed, spec); wall_time is the one field that varies between runs.
SampleBatch and CertificateReport are immutable NamedTuple records (see
``qcore``): they unpack, index and compare equal to plain tuples, and
``report._replace(wall_time=0.0)`` is a report without its timing.
"""

from __future__ import annotations

import math
import random
import time
from functools import partial
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Tuple

from .classical import EULER_GAMMA, ln_gamma_classical, psi_classical
from .constants import CONVEXITY_SLACK_LOG, MIN_PAIR_GAP, SLOPE_SLACK
from .errors import AlphaBelowRoot, DomainError, Overflow, QGammaError
from .qcore import QParam, require_count
from .qspecial import gamma_q, ln_gamma_q, psi_q, euler_gamma_q
from .bounds import (
    BoundPair,
    DomainSpec,
    INEQUALITY_IDS,
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

SCHEMA_VERSION = 2

_LN_HALF = math.log(0.5)
_FAILURE_CAP = 100

Point = Tuple[Optional[float], Optional[float], Optional[float], object]


class SampleBatch(NamedTuple):
    """Deterministic point batch: same (seed, count, spec) => same points."""

    seed: int
    count: int
    points: tuple


class CertificateReport(NamedTuple):
    """Per-check pass/fail statistics with worst log-space margins.

    ``failures`` is capped, each ``{point, lower_margin, upper_margin}`` or
    ``{point, error}``; ``n_errors`` counts every point whose evaluation
    raised, whether or not ``failures`` still had room for it.
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
    """Accumulates one CertificateReport, one checked point at a time;
    ``point_dict`` turns only a recorded failure's point into its dict."""

    def __init__(self, report_id: str, point_dict: Callable[[tuple], dict]):
        self.report_id = report_id
        self.point_dict = point_dict
        self.n_samples = self.n_pass = self.n_errors = 0
        self.worst_lower = self.worst_upper = math.inf
        self.failures = []
        self.start = time.perf_counter()

    def add(self, point: tuple, lower_margin: float, upper_margin: float, passed: bool) -> None:
        """Record one evaluated point and, if it failed, its margins."""
        self.n_samples += 1
        self.worst_lower = min(self.worst_lower, lower_margin)
        self.worst_upper = min(self.worst_upper, upper_margin)
        if passed:
            self.n_pass += 1
        elif len(self.failures) < _FAILURE_CAP:
            self.failures.append({"point": self.point_dict(point), "lower_margin": lower_margin,
                                  "upper_margin": upper_margin})

    def error(self, point: tuple, exc: QGammaError) -> None:
        """Record one point whose evaluation raised, as a failure."""
        self.n_samples += 1
        self.n_errors += 1
        if len(self.failures) < _FAILURE_CAP:
            self.failures.append({"point": self.point_dict(point), "error": str(exc)})

    def errored(self, point: tuple, *values) -> bool:
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


def _ordered_pair(rng: random.Random, interval: Tuple[float, float]) -> Callable[[], tuple]:
    """A draw function for an ordered pair from ``interval`` (a, b): with u, v
    two draws of rng.uniform(a, b - g) and g = MIN_PAIR_GAP, (max(u, v) + g,
    min(u, v)).  These order statistics are uniform over {a <= y, y + g <= x
    <= b}, as redrawing until x > y + g would be."""
    a, b = interval
    draw = _uniform(rng, (a, b - MIN_PAIR_GAP))

    def pair() -> tuple:
        u, v = draw(), draw()
        return (u + MIN_PAIR_GAP, v) if u > v else (v + MIN_PAIR_GAP, u)

    return pair


def sample(spec: DomainSpec, seed: int, count: int) -> SampleBatch:
    """Draw ``count`` points (an integer >= 1) from ``spec``, each once, from
    the stream of ``random.Random(seed)``; the points depend on the seed
    alone, and drawing them evaluates nothing.

    Each point draws x and y (an ordered pair under x_greater_than_y), then
    q, then mu and lambda (an ordered pair under mu_greater_than_lambda) or
    the aux value, each as ``rng.uniform`` over its range would (q
    log-uniform in 1 - q over ranges wider than a decade).  An ordered pair
    is the larger of two draws from (a, b - MIN_PAIR_GAP) plus the gap, then
    the smaller.  Under alpha_at_least_root aux is the offset above the
    psi_q root, which ``certify`` solves.  DomainError for a bad count or
    seed is the only error: ``DomainSpec`` rejects an unsatisfiable
    constraint when it is built."""
    require_count(count, "count")
    # random.Random(-s) would replay the stream of s, and Random(True) that of 1.
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    rng = random.Random(seed)
    if spec.constraint == "x_greater_than_y":
        draw_xy = _ordered_pair(rng, spec.x_range)
    else:
        draw_x = _uniform(rng, spec.x_range)
        draw_y = _uniform(rng, spec.y_range) if spec.y_range is not None else lambda: None
        draw_xy = lambda: (draw_x(), draw_y())
    draw_q = _q_draw(rng, spec.q_range) if spec.q_range is not None else lambda: None
    if spec.constraint == "mu_greater_than_lambda":
        draw_aux = _ordered_pair(rng, spec.aux_range)
    else:
        draw_aux = _uniform(rng, spec.aux_range) if spec.aux_range is not None else lambda: None
    points = tuple((*draw_xy(), draw_q(), draw_aux()) for _ in range(count))
    return SampleBatch(seed=seed, count=count, points=points)


def linspace(lo: float, hi: float, n: int) -> list:
    """``n >= 2`` evenly spaced floats from ``lo`` to ``hi`` inclusive, each
    i * step + lo with step = (hi - lo) / (n - 1), the last exactly ``hi``:
    numpy.linspace's formula, and so its values bit for bit.  DomainError
    for an integer n < 2, which has no step, and, through require_count,
    for an n that is not an integer."""
    if isinstance(n, int) and n < 2:
        raise DomainError(f"linspace needs n >= 2 points, got {n!r}")
    require_count(n, "n")
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


def _point_dict(point: Point) -> dict:
    x, y, q, aux = point
    return {"x": x, "y": y, "q": q, "aux": aux}


def evaluate_point(inequality_id: str, point: Point, *, force: bool = False) -> BoundPair:
    """Evaluate one inequality's BoundPair at a sampled point."""
    x, y, q, aux = point
    if inequality_id == "thm_main":
        return thm_main_bounds(x, y, QParam(q), force=force)
    if inequality_id == "cor_half_shift":
        return cor_half_shift_bounds(x, QParam(q))
    if inequality_id == "thm_alpha":
        return thm_alpha_bounds(x, y, aux, QParam(q), force=force)
    if inequality_id == "thm_mvt":
        return thm_mvt_bounds(x, y, QParam(q), force=force)
    if inequality_id == "cor_mu_lambda":
        mu, lam = aux
        return cor_mu_lambda_bounds(x, mu, lam, QParam(q), force=force)
    if inequality_id == "cor_one_half":
        return cor_one_half_bounds(x, QParam(q))
    if inequality_id == "remark_rearranged":
        return remark_rearranged_bounds(x, QParam(q))
    if inequality_id == "keckic_vasic":
        return keckic_vasic_bounds(x, y, force=force)
    if inequality_id == "zhang_xu_situ":
        return zhang_xu_situ_bounds(x, y)
    raise DomainError(f"unknown inequality id {inequality_id!r}")


def _alpha(q: QParam, offset: float):
    """alpha = q's psi_q root + ``offset``, or the QGammaError its solve raised."""
    root = _attempt(cached_psi_root, q)
    return root if isinstance(root, QGammaError) else root + offset


def certify(inequality_id: str, batch: SampleBatch, *, corrupt_upper: bool = False) -> CertificateReport:
    """Check lower <= ratio <= upper (log space, 1e-9 slack) over a batch.

    A thm_alpha point's aux is its offset above the psi_q root, as
    ``sample`` draws it: each point's root is solved just before the point
    is evaluated, a reported point has aux alpha = root + offset, and a
    solve that raises is that point's error, in sample order, with aux None.

    Evaluation errors at a point are recorded as failures, never skipped.
    ``corrupt_upper`` halves every upper bound; it exists so the harness can
    prove to itself that it is able to fail.
    """
    solve_alpha = default_domain(inequality_id).constraint == "alpha_at_least_root"
    tally = _Tally(inequality_id, _point_dict)
    for point in batch.points:
        if solve_alpha:
            x, y, q, offset = point
            alpha = _alpha(QParam(q), offset)
            if tally.errored((x, y, q, None), alpha):
                continue
            point = (x, y, q, alpha)
        try:
            pair = evaluate_point(inequality_id, point)
        except QGammaError as exc:
            tally.error(point, exc)
            continue
        upper_margin = pair.upper_margin + _LN_HALF if corrupt_upper else pair.upper_margin
        tally.add(point, pair.lower_margin, upper_margin, passes(pair.lower_margin, upper_margin))
    return tally.report()


# --------------------------------------------------------------------------
# Convexity, slope and limit checks
# --------------------------------------------------------------------------

class _ProofRow(NamedTuple):
    """A proof function: its log ratio ln f(t) - ln f(u), one ln_gamma_q sum
    less the offset of its theorem's bounds, and slope t (ln f)'(t), its
    theorem's own, at (q, alpha); pairs from ``pair_domain``, each argument at
    least ``least_argument``; a slope grid spanning ``slope_ends``; and at
    each q of the check grid, alpha = q's psi_q root plus each offset."""

    pair_domain: DomainSpec
    slope_ends: Tuple[float, float]
    alpha_offsets: Optional[Tuple[float, ...]]
    least_argument: float
    log_ratio: Callable[[float, float, QParam, Optional[float]], float]
    slope: Callable[[float, QParam, Optional[float]], float]


_PROOF_ROWS = {
    # f(t) = e^[t]_q Gamma_q(t) on [1, inf)
    "f_thm_main": _ProofRow(
        DomainSpec((1.0, 20.0), (1.0, 20.0), None), (1.0, 10.0), None, 1.0,
        lambda t, u, q, alpha: ln_gamma_q(t, q, y=u).value - _f_offset(t, u, q),
        lambda t, q, alpha: _f_slope(t, q),
    ),
    # g(t) = e^t Gamma_q(t+a) / (t+a) on (0, inf) with a >= root
    "g_thm_alpha": _ProofRow(
        DomainSpec((0.05, 10.0), (0.05, 10.0), None), (0.05, 10.0), (0.0, 1.0, 5.0), 0.0,
        lambda t, u, q, alpha: ln_gamma_q(t + alpha, q, y=u + alpha).value - _g_offset(t, u, alpha),
        lambda t, q, alpha: _g_slope(t, alpha, q),
    ),
}


def _public_alpha(function_id: str, q: QParam, aux):
    """The alpha of a public proof check: None for f; for g ``aux``, or the
    QGammaError it fails thm_alpha's rule with (non-finite, a failed root
    solve), which each point records.  AlphaBelowRoot, an unknown id and a
    missing or extra alpha raise."""
    row = _PROOF_ROWS.get(function_id)
    if row is None:
        raise DomainError(f"unknown proof function {function_id!r}")
    if (aux is None) != (row.alpha_offsets is None):
        raise DomainError(f"{function_id} takes {'an' if aux is None else 'no'} alpha, got {aux!r}")
    if aux is None:
        return None
    failure = _attempt(_require_alpha, float(aux), q)
    if isinstance(failure, AlphaBelowRoot):
        raise failure
    return float(aux) if failure is None else failure


def _convexity_report(function_id: str, runs: Iterable) -> CertificateReport:
    """One report of the midpoint margins over (batch, q, alpha) runs; a
    failure's point holds the pair, the run's q and its alpha."""
    row = _PROOF_ROWS[function_id]
    least = row.least_argument
    tally = _Tally(f"convexity_{function_id}", _point_dict)
    for batch, q, alpha in runs:
        aux = None if isinstance(alpha, QGammaError) else alpha
        for x1, x2, *_ in batch.points:
            point = (x1, x2, q.q, aux)
            if tally.errored(point, alpha):
                continue
            try:
                if x1 < least or x2 < least:
                    raise DomainError(f"pair ({x1!r}, {x2!r}) outside [{least:g}, inf)")
                mid = math.sqrt(x1 * x2)
                margin = 0.5 * (row.log_ratio(x1, mid, q, alpha) + row.log_ratio(x2, mid, q, alpha))
            except QGammaError as exc:
                tally.error(point, exc)
                continue
            tally.add(point, margin, margin, margin >= -CONVEXITY_SLACK_LOG)
    return tally.report()


def check_geometric_convexity(function_id: str, batch: SampleBatch, q: QParam, aux=None) -> CertificateReport:
    """Verify ln f(sqrt(x1 x2)) <= (ln f(x1) + ln f(x2)) / 2 over a pair batch.

    Pairs come from the (x, y) slots of the batch.  The midpoint margin,
    (D(x1, m) + D(x2, m)) / 2 with m = sqrt(x1 x2) and D the log ratio of f,
    is reported in both worst-margin fields.  ``aux`` is g's alpha.
    """
    return _convexity_report(function_id, [(batch, q, _public_alpha(function_id, q, aux))])


def _slope_report(function_id: str, runs: Iterable) -> CertificateReport:
    """One report of the slope differences over (grid, q, alpha) runs."""
    slope = _PROOF_ROWS[function_id].slope
    tally = _Tally(f"slope_{function_id}", _point_dict)
    for grid, q, alpha in runs:
        grid = [float(t) for t in grid]
        if len(grid) < 2 or not all(a < b for a, b in zip(grid, grid[1:])):
            raise DomainError("grid must hold >= 2 strictly increasing points")
        failed = isinstance(alpha, QGammaError)
        aux = None if failed else alpha
        values = [alpha if failed else _attempt(slope, t, q, alpha) for t in grid]
        for i, (a, b) in enumerate(zip(values, values[1:])):
            point = (grid[i], grid[i + 1], q.q, aux)
            if tally.errored(point, a, b):
                continue
            margin = b - a
            tally.add(point, margin, margin, margin >= -SLOPE_SLACK)
    return tally.report()


def check_lemma_monotone_slope(function_id: str, grid: Sequence[float], q: QParam, aux=None) -> CertificateReport:
    """Verify x (ln f)'(x) is nondecreasing along a strictly increasing grid
    of at least 2 points; ``aux`` is g's alpha.

    A slope that fails to evaluate makes each comparison it enters a
    recorded error.
    """
    return _slope_report(function_id, [(grid, q, _public_alpha(function_id, q, aux))])


_LIMIT_REL_TOL = 5e-2


def check_limits(q_sequence: Sequence[float], x_grid: Sequence[float]) -> CertificateReport:
    """Verify Gamma_q -> Gamma, psi_q -> psi and gamma_q -> gamma as q -> 1.

    For each x the absolute deviations must decrease strictly along
    q_sequence, at least 2 q values, and the terminal relative deviation
    must be <= 5e-2.  A q-value that fails to evaluate makes each
    comparison it enters a recorded error, and so does a reference that
    leaves the doubles (Gamma(x) past x = 171.6): every comparison of its
    track.
    """
    q_sequence = [float(q) for q in q_sequence]
    if len(q_sequence) < 2 or not all(a < b for a, b in zip(q_sequence, q_sequence[1:])):
        raise DomainError("q_sequence must hold >= 2 strictly increasing values")
    # Beyond 1 - 1e-5 the psi deviation at x = 1.5, where its first-order
    # term -(2x - 3) s / 4 vanishes, nears rounding: 3.5e-13 at 1 - 1e-5,
    # 4.5e-15 at 1 - 1e-6 and 1.1e-15 at 1 - 1e-7.
    if max(q_sequence) > 0.99999:
        raise DomainError("q_sequence must stay <= 0.99999")
    tally = _Tally("limits", lambda point: {"track": point[0], "q": point[1]})

    def run_track(label: str, evaluations: Sequence, reference: float | QGammaError):
        if isinstance(reference, QGammaError):
            evaluations = [reference] * len(evaluations)
        deviations = [
            ev if isinstance(ev, QGammaError) else abs(ev.value - reference) for ev in evaluations
        ]
        for i, (a, b) in enumerate(zip(deviations, deviations[1:])):
            point = (label, q_sequence[i + 1])
            if tally.errored(point, a, b):
                continue
            margin = a - b
            tally.add(point, margin, margin, margin > 0.0)
        point = (label, q_sequence[-1])
        if tally.errored(point, deviations[-1]):
            return
        margin = _LIMIT_REL_TOL - deviations[-1] / max(abs(reference), 1e-300)
        tally.add(point, margin, margin, margin >= 0.0)

    for x in x_grid:
        ln_gamma_ref = ln_gamma_classical(x).value
        try:
            gamma_ref = math.exp(ln_gamma_ref)
        except OverflowError:
            gamma_ref = Overflow(f"Gamma({x}) exceeds the double range (ln = {ln_gamma_ref:.6g})")
        psi_ref = psi_classical(x).value
        run_track(f"gamma@x={x}", [_attempt(gamma_q, x, QParam(q)) for q in q_sequence], gamma_ref)
        run_track(f"psi@x={x}", [_attempt(psi_q, x, QParam(q)) for q in q_sequence], psi_ref)
    run_track("euler_gamma", [_attempt(euler_gamma_q, QParam(q)) for q in q_sequence], EULER_GAMMA)
    return tally.report()


# --------------------------------------------------------------------------
# Registry: every certified claim, one runner per check id
# --------------------------------------------------------------------------

_CHECK_Q_GRID = (0.05, 0.25, 0.5, 0.75, 0.95)
_LIMIT_Q_SEQUENCE = (0.9, 0.99, 0.999, 0.9999, 0.99999)
_LIMIT_X_GRID = (0.5, 1.5, 2.5, 4.0)


def _combos(row: _ProofRow) -> list:
    """The (q, alpha) pairs of ``row``, alpha each offset above q's psi_q root,
    or the QGammaError its solve raised, which each point of the run records."""
    grid = [QParam(q) for q in _CHECK_Q_GRID]
    if row.alpha_offsets is None:
        return [(q, None) for q in grid]
    return [(q, _alpha(q, off)) for q in grid for off in row.alpha_offsets]


def _run_inequality(inequality_id: str, seed: int, samples: int, corrupt_upper=False):
    return certify(inequality_id, sample(default_domain(inequality_id), seed, samples), corrupt_upper=corrupt_upper)


def _run_convexity(function_id: str, seed: int, samples: int) -> CertificateReport:
    row = _PROOF_ROWS[function_id]
    combos = _combos(row)
    per_combo = -(-samples // len(combos))
    runs = ((sample(row.pair_domain, seed + i, per_combo), q, aux) for i, (q, aux) in enumerate(combos))
    return _convexity_report(function_id, runs)


def _run_slope(function_id: str, seed: int, samples: int) -> CertificateReport:
    row = _PROOF_ROWS[function_id]
    combos = _combos(row)
    # One extra grid point per combo so comparison counts reach ``samples``.
    grid = linspace(*row.slope_ends, -(-samples // len(combos)) + 1)
    return _slope_report(function_id, [(grid, q, aux) for q, aux in combos])


# Runner per check id, each called as (seed, samples); the inequality
# runners alone take corrupt_upper, as only they have upper bounds.
_CHECKS: dict[str, Callable[..., CertificateReport]] = {
    **{ineq: partial(_run_inequality, ineq) for ineq in INEQUALITY_IDS},
    **{f"convexity_{fid}": partial(_run_convexity, fid) for fid in _PROOF_ROWS},
    **{f"slope_{fid}": partial(_run_slope, fid) for fid in _PROOF_ROWS},
    "limits": lambda seed, samples: check_limits(_LIMIT_Q_SEQUENCE, _LIMIT_X_GRID),
}

ALL_CHECK_IDS = tuple(_CHECKS)

# The checks beyond the inequalities: none has an upper bound to halve.
EXTRA_CHECK_IDS = ALL_CHECK_IDS[len(INEQUALITY_IDS):]


def run_check(check_id: str, seed: int = 42, samples: int = 1000, *, corrupt_upper: bool = False) -> CertificateReport:
    """Run one registered check.  ``corrupt_upper`` halves every upper bound
    of an inequality id and raises DomainError for the other ids, which have
    none.  ``samples`` must be an integer >= 1 for every id, including
    those that ignore it."""
    require_count(samples, "samples")
    run = _CHECKS.get(check_id)
    if run is None:
        raise DomainError(f"unknown check id {check_id!r}")
    if corrupt_upper and check_id in EXTRA_CHECK_IDS:
        raise DomainError(f"{check_id} has no upper bound to halve")
    return run(seed, samples, corrupt_upper=True) if corrupt_upper else run(seed, samples)


# --------------------------------------------------------------------------
# Report serialization
# --------------------------------------------------------------------------

def _json_ready(value):
    """``value`` with each non-finite float in it, which JSON cannot hold, None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(item) for item in value]
    return value


def report_to_dict(report: CertificateReport) -> dict:
    """JSON form; schema documented in the cli module.  A non-finite float is
    None (JSON null): a worst margin when no point was evaluated, say."""
    return _json_ready({
        "schema_version": SCHEMA_VERSION,
        "inequality_id": report.inequality_id,
        "n_samples": report.n_samples,
        "n_pass": report.n_pass,
        "n_errors": report.n_errors,
        "worst_lower_margin": report.worst_lower_margin,
        "worst_upper_margin": report.worst_upper_margin,
        "failures": report.failures,
        "wall_time_s": report.wall_time,
    })


def report_to_text(report: CertificateReport) -> str:
    """Key-value text form, one finding per line."""
    lines = [
        f"inequality_id: {report.inequality_id}",
        f"n_samples: {report.n_samples}",
        f"n_pass: {report.n_pass}",
        f"n_errors: {report.n_errors}",
        f"worst_lower_margin: {report.worst_lower_margin:.17g}",
        f"worst_upper_margin: {report.worst_upper_margin:.17g}",
        f"wall_time_s: {report.wall_time:.6f}",
    ]
    for failure in report.failures:
        parts = " ".join(f"{k}={v!r}" for k, v in failure.items())
        lines.append(f"failure: {parts}")
    return "\n".join(lines)
