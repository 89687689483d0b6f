import json
import math
import random

import numpy as np
import pytest
from mpmath import mp, mpf

from oracles import mp_ln_gamma_q, mp_q_bracket
from qgamma.errors import AlphaBelowRoot, BracketFailure, DomainError
from qgamma import bounds, propcheck, qspecial
from qgamma.qcore import QParam, q_bracket_derivative
from qgamma.constants import MIN_PAIR_GAP
from qgamma.qspecial import psi_q
from qgamma.bounds import DomainSpec, INEQUALITY_IDS, cached_psi_root, default_domain
from qgamma.propcheck import (
    ALL_CHECK_IDS,
    EXTRA_CHECK_IDS,
    SampleBatch,
    certify,
    check_geometric_convexity,
    check_lemma_monotone_slope,
    check_limits,
    linspace,
    report_to_dict,
    report_to_text,
    run_check,
    sample,
)


class TestSample:
    def test_deterministic(self):
        spec = default_domain("thm_mvt")
        a = sample(spec, seed=123, count=200)
        b = sample(spec, seed=123, count=200)
        assert a == b

    def test_seed_changes_points(self):
        spec = default_domain("thm_mvt")
        assert sample(spec, 1, 50) != sample(spec, 2, 50)

    def test_degenerate_interval(self):
        spec = DomainSpec((2.0, 2.0), None, (0.05, 0.95))
        batch = sample(spec, 7, 20)
        assert all(p[0] == 2.0 for p in batch.points)

    def test_constraints_hold(self):
        batch = sample(default_domain("thm_mvt"), 3, 300)
        assert all(x > y + 1e-6 for x, y, _, _ in batch.points)
        batch = sample(default_domain("cor_mu_lambda"), 3, 300)
        assert all(aux[0] > aux[1] for _, _, _, aux in batch.points)

    def test_alpha_constraint_sits_above_root(self, monkeypatch):
        # aux is the drawn offset; certify reports each point with alpha =
        # root + offset, at or above the psi_q root.  No point passes, so
        # every point is a failure that carries its aux.
        spec = default_domain("thm_alpha")
        batch = sample(spec, 5, 50)
        assert all(spec.aux_range[0] <= offset <= spec.aux_range[1] for _, _, _, offset in batch.points)
        monkeypatch.setattr(propcheck, "passes", lambda lower, upper: False)
        report = certify("thm_alpha", batch)
        assert report.n_errors == 0 and len(report.failures) == 50
        for failure, (x, y, q, offset) in zip(report.failures, batch.points):
            root = cached_psi_root(QParam(q))
            assert failure["point"] == {"x": x, "y": y, "q": q, "aux": root + offset}
            assert failure["point"]["aux"] >= root

    def test_drawing_solves_no_root(self, monkeypatch):
        # Sampling does no numerics, so a root solve that would raise
        # cannot abort it.
        expected = sample(default_domain("thm_alpha"), 7, 50)

        def fail(q):
            raise AssertionError("sample solved a root")

        monkeypatch.setattr(propcheck, "cached_psi_root", fail)
        assert sample(default_domain("thm_alpha"), 7, 50) == expected

    def test_classical_points_have_no_q(self):
        batch = sample(default_domain("keckic_vasic"), 5, 20)
        assert all(p[2] is None for p in batch.points)

    @pytest.mark.parametrize(
        "args",
        [
            ((0.0, 1.0), (5.0, 6.0), (0.05, 0.95), None, "x_greater_than_y"),
            ((0.0, 1.0), (0.0, 2.0), (0.05, 0.95), None, "x_greater_than_y"),
            ((1.0, 1.0 + 0.5 * MIN_PAIR_GAP), (1.0, 1.0 + 0.5 * MIN_PAIR_GAP), None, None, "x_greater_than_y"),
            ((1.0, 2.0), None, (0.05, 0.95), (1.0, 1.0 + MIN_PAIR_GAP), "mu_greater_than_lambda"),
        ],
        ids=["disjoint", "unequal", "narrow_xy", "narrow_aux"],
    )
    def test_unsatisfiable_constraint_fails_at_construction(self, args):
        # An ordered pair is sorted from two draws of one range, so a spec
        # that no sampled point could satisfy is refused when it is built.
        with pytest.raises(DomainError):
            DomainSpec(*args)

    @pytest.mark.parametrize("inequality_id", ["thm_mvt", "cor_mu_lambda", "keckic_vasic"])
    def test_ordered_pairs_are_order_statistics(self, inequality_id):
        # With w = b - g - a, the larger of two uniform draws plus the gap g
        # has CDF ((t - g - a) / w)^2 on [a + g, b], and the smaller
        # 1 - (1 - (t - a) / w)^2 on [a, b - g].
        spec = default_domain(inequality_id)
        points = sample(spec, 2024, 20_000).points
        if inequality_id == "cor_mu_lambda":
            (a, b), pairs = spec.aux_range, [aux for _, _, _, aux in points]
        else:
            (a, b), pairs = spec.x_range, [(x, y) for x, y, _, _ in points]
        w = b - MIN_PAIR_GAP - a
        larger, smaller = (np.array(values) for values in zip(*pairs))
        # Kolmogorov-Smirnov at level 1e-3: D below c / sqrt(n), c = sqrt(-ln(5e-4) / 2).
        critical = math.sqrt(-math.log(5e-4) / 2) / math.sqrt(len(points))
        assert _ks_statistic(larger, lambda t: ((t - MIN_PAIR_GAP - a) / w) ** 2) < critical
        assert _ks_statistic(smaller, lambda t: 1 - (1 - (t - a) / w) ** 2) < critical

    @pytest.mark.parametrize("unit", [0.0, 1.0 - 2.0**-53])
    @pytest.mark.parametrize("inequality_id", ["thm_mvt", "cor_mu_lambda", "keckic_vasic"])
    def test_ordered_pairs_stay_in_range_at_the_extreme_draws(self, inequality_id, unit, monkeypatch):
        monkeypatch.setattr(random.Random, "random", lambda self: unit)
        spec = default_domain(inequality_id)
        for x, y, _, aux in sample(spec, 1, 3).points:
            if inequality_id == "cor_mu_lambda":
                (high, low), (a, b) = aux, spec.aux_range
            else:
                (high, low), (a, b) = (x, y), spec.x_range
            assert a <= low < high <= b
            assert spec.x_range[0] <= x <= spec.x_range[1]

    def test_count_validation(self):
        with pytest.raises(DomainError):
            sample(default_domain("thm_main"), 1, 0)

    @pytest.mark.parametrize("count", [2.0, 2.5, "3", True])
    def test_count_must_be_an_integer(self, count):
        with pytest.raises(DomainError, match=f"count must be an integer, got {count!r}"):
            sample(default_domain("thm_main"), 1, count)

    def test_q_range_respected(self):
        batch = sample(default_domain("thm_main"), 19, 500)
        qs = [p[2] for p in batch.points]
        assert min(qs) >= 0.05 and max(qs) <= 0.95

    def test_stream_is_pinned(self):
        # A change of stream or of draw order changes these literals.  aux is
        # the drawn offset; the psi_q root plus it is the alpha that releases
        # which put alpha in aux drew, bit for bit.  A root is the centre of
        # its certified bracket, so a refit of the root guess moves these
        # alphas within it: the last refit, to psi_q's q-Stirling zeros,
        # moved them by at most 7e-14.
        expected = (
            (12.806564629234781, 0.5489645666922054, 0.887626285781104, 2.2321073814882277),
            (14.742600722572048, 13.550154774087082, 0.3084113786732331, 0.8693883262941615),
            (8.467340302721146, 0.6444545277895034, 0.9048181587181494, 5.053552881033624),
        )
        alphas = (3.6913304202386517, 2.303411063487899, 6.51316979840145)
        batch = sample(default_domain("thm_alpha"), 42, 3)
        assert batch.points == expected
        for (_, _, q, offset), alpha in zip(batch.points, alphas):
            assert cached_psi_root(QParam(q)) + offset == alpha

    @pytest.mark.parametrize("seed", [5, 2024])
    @pytest.mark.parametrize(
        "spec",
        [
            default_domain("thm_main"),
            default_domain("thm_mvt"),
            default_domain("cor_mu_lambda"),
            default_domain("thm_alpha"),
            default_domain("keckic_vasic"),
            DomainSpec((0.5, 2.0), None, (0.3, 0.6), (1.0, 4.0)),
        ],
        ids=["none", "x_greater_than_y", "mu_greater_than_lambda", "alpha_at_least_root", "no_q", "narrow_q_aux"],
    )
    def test_draws_what_random_uniform_draws(self, spec, seed):
        assert sample(spec, seed, 40).points == _reference_points(spec, seed, 40)

    @pytest.mark.parametrize("seed", [-1, -42, 1.5, True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # random.Random(-s) would replay the stream of s, and Random(True)
        # that of 1.
        with pytest.raises(DomainError):
            sample(default_domain("thm_main"), seed, 5)



def _ks_statistic(values: np.ndarray, cdf) -> float:
    """The Kolmogorov-Smirnov distance sup |F_n - F| of ``values`` from ``cdf``."""
    values = np.sort(values)
    n = len(values)
    expected = cdf(values)
    return max(np.max(np.arange(1, n + 1) / n - expected), np.max(expected - np.arange(n) / n))


def _reference_points(spec: DomainSpec, seed: int, count: int) -> tuple:
    """The documented draw order, from random.Random(seed).uniform: x and y
    (under x_greater_than_y, two draws u, v from (a, b - MIN_PAIR_GAP) make
    the pair (max + gap, min)), then q (log-uniform in 1 - q over ranges
    wider than a decade), then mu and lambda (an ordered pair likewise), or
    aux (the alpha offset above the psi_q root under alpha_at_least_root)."""
    rng = random.Random(seed)

    def ordered(lo, hi):
        u = rng.uniform(lo, hi - MIN_PAIR_GAP)
        v = rng.uniform(lo, hi - MIN_PAIR_GAP)
        return max(u, v) + MIN_PAIR_GAP, min(u, v)

    points = []
    for _ in range(count):
        if spec.constraint == "x_greater_than_y":
            x, y = ordered(*spec.x_range)
        else:
            x = rng.uniform(*spec.x_range)
            y = rng.uniform(*spec.y_range) if spec.y_range is not None else None
        q = None
        if spec.q_range is not None:
            lo, hi = spec.q_range
            if (1.0 - lo) / (1.0 - hi) > 10.0:
                q = 1.0 - math.exp(rng.uniform(math.log(1.0 - hi), math.log(1.0 - lo)))
            else:
                q = rng.uniform(lo, hi)
        aux = None
        if spec.constraint == "mu_greater_than_lambda":
            aux = ordered(*spec.aux_range)
        elif spec.aux_range is not None:
            aux = rng.uniform(*spec.aux_range)
        points.append((x, y, q, aux))
    return tuple(points)


class TestLinspace:
    @pytest.mark.parametrize("lo, hi", [(1.0, 10.0), (0.05, 10.0), (0.1, 5.0), (-3.0, 7.25), (1e-3, 0.999)])
    def test_matches_numpy_bit_for_bit(self, lo, hi):
        for n in range(2, 400):
            assert linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist(), n

    @pytest.mark.parametrize("n", [1, 0, -4])
    def test_fewer_than_two_points_raise(self, n):
        with pytest.raises(DomainError, match=f"n >= 2 points, got {n}"):
            linspace(1.0, 10.0, n)

    @pytest.mark.parametrize("n", [3.0, math.nan, "3"])
    def test_a_count_that_is_not_an_integer_raises(self, n):
        # 3.0 once raised TypeError from range().
        with pytest.raises(DomainError, match="n must be an integer"):
            linspace(0.0, 1.0, n)

    @pytest.mark.parametrize("function_id, lo", [("f_thm_main", 1.0), ("g_thm_alpha", 0.05)])
    def test_slope_grid_is_numpy_linspace(self, function_id, lo, monkeypatch):
        grids = []
        slope_report = propcheck._slope_report

        def record(fid, runs, *args):
            runs = list(runs)
            grids.extend(grid for grid, _, _ in runs)
            return slope_report(fid, runs, *args)

        monkeypatch.setattr(propcheck, "_slope_report", record)
        report = run_check(f"slope_{function_id}", seed=1, samples=40)
        assert report.n_pass == report.n_samples
        assert len(grids) == (5 if function_id == "f_thm_main" else 15)
        for grid in grids:
            assert grid == np.linspace(lo, 10.0, len(grid)).tolist()


class TestCertify:
    def test_equality_points_collapse(self):
        points = tuple((v, v, 0.4, None) for v in np.linspace(1.0, 20.0, 50))
        batch = SampleBatch(seed=0, count=50, points=points)
        report = certify("thm_main", batch)
        assert report.n_pass == report.n_samples == 50
        assert abs(report.worst_lower_margin) < 1e-12
        assert abs(report.worst_upper_margin) < 1e-12

    def test_small_batches_pass_everywhere(self):
        for ineq in INEQUALITY_IDS:
            report = certify(ineq, sample(default_domain(ineq), 42, 60))
            assert report.n_pass == report.n_samples, (ineq, report.failures[:3])
            assert report.failures == ()

    def test_corrupted_upper_bound_detected(self):
        batch = sample(default_domain("thm_mvt"), 42, 100)
        report = certify("thm_mvt", batch, corrupt_upper=True)
        assert report.n_pass < report.n_samples
        assert len(report.failures) > 0
        assert report.worst_upper_margin < 0

    def test_evaluation_errors_recorded_not_skipped(self):
        # A negative offset puts alpha below the root: every point errors
        # out, and reports the alpha it was evaluated at.
        points = ((2.0, 1.0, 0.5, -0.5), (3.0, 1.0, 0.5, -0.2))
        batch = SampleBatch(seed=0, count=2, points=points)
        report = certify("thm_alpha", batch)
        root = cached_psi_root(QParam(0.5))
        assert report.n_pass == 0
        assert len(report.failures) == 2
        for failure, (_, _, _, offset) in zip(report.failures, points):
            assert failure["error"] == str(AlphaBelowRoot(root + offset, root))
            assert failure["point"]["aux"] == root + offset

    def test_failed_root_solve_is_the_points_error(self, monkeypatch):
        # With no root cached, a 3-term cap fails every solve: each point
        # records the solve's error, with aux None since alpha is unknown.
        # q is drawn from (0.5, 0.6), on psi_q's n-series side (s = -ln q >=
        # _QSERIES_S), which reads the cap, and where psi_q near its zero
        # (x < 1.5) takes a head of ceil(sqrt(-ln REL_TOL / -ln q) - x) >= 6
        # terms.
        monkeypatch.setattr(bounds, "_ROOT_CACHE", {})
        monkeypatch.setattr(qspecial, "MAX_TERMS", 3)
        assert -QParam(0.6).ln_q >= qspecial._QSERIES_S
        batch = sample(default_domain("thm_alpha")._replace(q_range=(0.5, 0.6)), 1, 7)
        report = certify("thm_alpha", batch)
        assert report.n_samples == report.n_errors == 7
        for failure, (x, y, q, _) in zip(report.failures, batch.points):
            assert failure["point"] == {"x": x, "y": y, "q": q, "aux": None}
            assert "no convergence within 3 terms" in failure["error"]

    def test_failures_keep_sample_order(self, monkeypatch):
        # Each root is solved in the per-point loop, so a failed solve is
        # recorded where its point sits, after the point before it.
        root = cached_psi_root(QParam(0.5))

        def solve(q):
            if q.q == 0.3:
                raise BracketFailure("no root at q = 0.3")
            return cached_psi_root(q)

        monkeypatch.setattr(propcheck, "cached_psi_root", solve)
        points = ((2.0, 1.0, 0.5, -0.5), (3.0, 1.0, 0.3, 1.0))
        report = certify("thm_alpha", SampleBatch(seed=0, count=2, points=points))
        assert report.n_samples == report.n_errors == 2
        assert [f["error"] for f in report.failures] == [str(AlphaBelowRoot(root - 0.5, root)), "no root at q = 0.3"]
        assert [f["point"]["aux"] for f in report.failures] == [root - 0.5, None]

    def test_unknown_id(self):
        batch = sample(default_domain("thm_main"), 1, 1)
        with pytest.raises(DomainError):
            certify("nope", batch)


class TestConvexityCheck:
    def test_equal_pair_is_tight(self):
        points = tuple((v, v, None, None) for v in (1.0, 2.5, 7.0, 19.0))
        batch = SampleBatch(seed=0, count=4, points=points)
        report = check_geometric_convexity("f_thm_main", batch, QParam(0.5))
        assert report.n_pass == 4
        assert abs(report.worst_lower_margin) <= 1e-12

    def test_f_random_pairs(self):
        spec = DomainSpec((1.0, 20.0), (1.0, 20.0), None)
        for qv in (0.1, 0.5, 0.9):
            report = check_geometric_convexity("f_thm_main", sample(spec, 2, 300), QParam(qv))
            assert report.n_pass == 300

    def test_g_random_pairs(self):
        spec = DomainSpec((0.05, 10.0), (0.05, 10.0), None)
        q = QParam(0.5)
        alpha = cached_psi_root(q) + 0.5
        report = check_geometric_convexity("g_thm_alpha", sample(spec, 2, 300), q, alpha)
        assert report.n_pass == 300

    def test_g_requires_alpha_at_least_root(self):
        spec = DomainSpec((0.05, 10.0), (0.05, 10.0), None)
        with pytest.raises(AlphaBelowRoot):
            check_geometric_convexity("g_thm_alpha", sample(spec, 2, 5), QParam(0.5), 0.2)

    def test_g_rejects_non_finite_alpha_at_every_point(self):
        batch = sample(DomainSpec((0.05, 10.0), (0.05, 10.0), None), 4, 3)
        report = check_geometric_convexity("g_thm_alpha", batch, QParam(0.5), math.nan)
        assert report.n_errors == report.n_samples == 3
        assert all(f["error"] == "alpha must be finite, got nan" for f in report.failures)

    def test_g_alpha_grace_matches_thm_alpha(self):
        # One rule for both: 1e-9 below the root passes, beyond it raises.
        q = QParam(0.75)
        root = cached_psi_root(q)
        batch = sample(DomainSpec((0.05, 10.0), (0.05, 10.0), None), 4, 3)
        report = check_geometric_convexity("g_thm_alpha", batch, q, root - 0.5e-9)
        assert report.n_pass == report.n_samples == 3
        assert bounds.thm_alpha_bounds(2.0, 1.0, root - 0.5e-9, q).log_ratio > 0.0
        with pytest.raises(AlphaBelowRoot):
            check_geometric_convexity("g_thm_alpha", batch, q, root - 2e-9)
        with pytest.raises(AlphaBelowRoot):
            bounds.thm_alpha_bounds(2.0, 1.0, root - 2e-9, q)

    def test_margins_against_oracle(self):
        # Close pairs on the check's q grid, alpha one above the root; the
        # margins are quadratic in the gap, so the error is absolute.
        def mp_ln_f(t, q):
            return mp_q_bracket(t, q) + mp_ln_gamma_q(t, q)

        def mp_ln_g(t, alpha, q):
            return mpf(t) + mp_ln_gamma_q(mpf(t) + alpha, q) - mp.log(mpf(t) + alpha)

        cases = {
            "f_thm_main": ((12.5, 12.501, 0.5), (17.0, 17.01, 0.95), (3.0, 3.0001, 0.75),
                           (19.0, 19.5, 0.25), (8.0, 8.001, 0.05), (15.0, 15.1, 0.95)),
            "g_thm_alpha": ((7.5, 7.501, 0.5), (9.0, 9.01, 0.95), (2.0, 2.0001, 0.75),
                            (9.5, 9.9, 0.25), (6.0, 6.001, 0.05), (8.0, 8.1, 0.95)),
        }
        for function_id, pairs in cases.items():
            for x1, x2, qv in pairs:
                q = QParam(qv)
                alpha = None if function_id == "f_thm_main" else cached_psi_root(q) + 1.0
                batch = SampleBatch(seed=0, count=1, points=((x1, x2, None, None),))
                got = check_geometric_convexity(function_id, batch, q, alpha).worst_lower_margin
                mid = math.sqrt(x1 * x2)
                if alpha is None:
                    ref = (mp_ln_f(x1, qv) + mp_ln_f(x2, qv)) / 2 - mp_ln_f(mid, qv)
                else:
                    a = mpf(alpha)
                    ref = (mp_ln_g(x1, a, qv) + mp_ln_g(x2, a, qv)) / 2 - mp_ln_g(mid, a, qv)
                assert abs(got - float(ref)) <= 4e-15, (function_id, x1, x2, qv)

    def test_g_failed_root_solve_is_recorded_per_point(self, monkeypatch):
        # With no root cached, the check solves it under a 3-term cap, which
        # cannot converge.
        batch = sample(DomainSpec((0.05, 10.0), (0.05, 10.0), None), 1, 5)
        monkeypatch.setattr(bounds, "_ROOT_CACHE", {})
        monkeypatch.setattr(qspecial, "MAX_TERMS", 3)
        report = check_geometric_convexity("g_thm_alpha", batch, QParam(0.5), 3.0)
        assert report.n_samples == report.n_errors == 5
        assert report.n_pass == 0
        assert all("no convergence" in f["error"] for f in report.failures)
        for failure, (x1, x2, _, _) in zip(report.failures, batch.points):
            assert failure["point"] == {"x": x1, "y": x2, "q": 0.5, "aux": None}

    def test_failures_name_their_q_and_alpha(self, monkeypatch):
        # With no root cached, a 10-term cap fails the root solves of the
        # larger grid q; each failure names the q and alpha of the grid run
        # it came from (alpha None where it has none), not the batch's blanks.
        offsets = propcheck._PROOF_ROWS["g_thm_alpha"].alpha_offsets
        alphas = {qv: {qspecial.psi_q_root(QParam(qv)).root + off for off in offsets}
                  for qv in propcheck._CHECK_Q_GRID}
        monkeypatch.setattr(bounds, "_ROOT_CACHE", {})
        monkeypatch.setattr(qspecial, "MAX_TERMS", 10)
        report = run_check("convexity_g_thm_alpha", seed=3, samples=200)
        assert report.failures
        for failure in report.failures:
            point = failure["point"]
            assert point["q"] in alphas, point
            assert point["aux"] is None or point["aux"] in alphas[point["q"]], point

    @pytest.mark.parametrize("check, function_id, aux", [
        (check_geometric_convexity, "g_thm_alpha", None),
        (check_geometric_convexity, "f_thm_main", 3.0),
        (check_lemma_monotone_slope, "g_thm_alpha", None),
        (check_lemma_monotone_slope, "f_thm_main", 3.0),
    ])
    def test_missing_or_extra_alpha_raises(self, check, function_id, aux):
        # g needs its alpha and f has none: neither may be guessed or dropped.
        pairs = sample(DomainSpec((1.0, 10.0), (1.0, 10.0), None), 1, 3)
        points = pairs if check is check_geometric_convexity else [1.0, 2.0, 3.0]
        with pytest.raises(DomainError, match=f"{function_id} takes (an|no) alpha"):
            check(function_id, points, QParam(0.5), aux)

    def test_f_pairs_below_one_rejected_as_errors(self):
        points = ((0.5, 2.0, None, None),)
        batch = SampleBatch(seed=0, count=1, points=points)
        report = check_geometric_convexity("f_thm_main", batch, QParam(0.5))
        assert report.n_pass == 0
        assert "error" in report.failures[0]


class TestSlopeCheck:
    @pytest.mark.parametrize("grid", [[2.0], [], [1.0, math.nan, 2.0]])
    def test_short_grid_raises(self, grid):
        # A grid with no comparison would report 0 of 0, which reads as a pass;
        # a NaN, which compares false with every point, orders no pair.
        with pytest.raises(DomainError, match=">= 2 strictly increasing points"):
            check_lemma_monotone_slope("f_thm_main", grid, QParam(0.5))

    def test_f_nondecreasing_on_grid(self):
        report = check_lemma_monotone_slope("f_thm_main", np.linspace(1.0, 10.0, 200), QParam(0.5))
        assert report.n_pass == report.n_samples == 199

    def test_g_nondecreasing_on_grid(self):
        q = QParam(0.5)
        alpha = cached_psi_root(q) + 1.0
        report = check_lemma_monotone_slope("g_thm_alpha", np.linspace(0.05, 10.0, 200), q, alpha)
        assert report.n_pass == report.n_samples == 199

    def test_rejects_unsorted_grid(self):
        with pytest.raises(DomainError):
            check_lemma_monotone_slope("f_thm_main", [1.0, 3.0, 2.0], QParam(0.5))

    def test_margins_are_differences_of_the_theorem_slopes(self):
        q = QParam(0.5)
        alpha = cached_psi_root(q) + 1.0

        def f_slope(t):
            return t * (q_bracket_derivative(t, q) + psi_q(t, q).value)

        def g_slope(t):
            return t * ((t + alpha - 1.0) / (t + alpha) + psi_q(t + alpha, q).value)

        for function_id, aux, slope, grid in (
            ("f_thm_main", None, f_slope, (1.0, 1.3, 2.7, 6.1, 9.9)),
            ("g_thm_alpha", alpha, g_slope, (0.05, 0.3, 1.7, 4.2, 9.9)),
        ):
            for a, b in zip(grid, grid[1:]):
                report = check_lemma_monotone_slope(function_id, [a, b], q, aux)
                assert report.worst_lower_margin == slope(b) - slope(a), (function_id, a, b)

    def test_g_failed_root_solve_is_recorded_per_comparison(self, monkeypatch):
        monkeypatch.setattr(bounds, "_ROOT_CACHE", {})
        monkeypatch.setattr(qspecial, "MAX_TERMS", 3)
        report = check_lemma_monotone_slope("g_thm_alpha", [0.5, 1.0, 2.0, 4.0], QParam(0.5), 3.0)
        assert report.n_samples == report.n_errors == 3
        assert report.n_pass == 0


class TestLimitsCheck:
    def test_default_sequences_pass(self):
        report = check_limits((0.9, 0.99, 0.999), (0.5, 1.5, 2.5, 4.0))
        assert report.n_pass == report.n_samples
        assert report.failures == ()

    def test_registered_sequence_reaches_one_minus_1e_minus_5(self):
        # Nine tracks (gamma and psi at four x, the Euler constant), each
        # with four decreasing steps and a terminal check.
        report = run_check("limits")
        assert report.n_samples == 45
        assert report.n_pass == report.n_samples

    def test_gamma_reference_beyond_the_doubles_is_recorded(self):
        # Gamma(200) ~ 3.9e372 leaves the doubles: both comparisons of the
        # gamma track are errors at their points, and the psi track and the
        # Euler constant's are still evaluated.
        report = check_limits((0.9, 0.99), (200.0,))
        assert report.n_samples == 6
        assert report.n_errors == 2
        errors = [f for f in report.failures if "error" in f]
        assert [f["point"] for f in errors] == [{"track": "gamma@x=200.0", "q": 0.99}] * 2
        assert all("Gamma(200.0) exceeds the double range" in f["error"] for f in errors)
        # psi_q(200) at q = 0.99 is still 0.69 off psi(200) = 5.29, above
        # the terminal 5e-2: an evaluated failure, with its margin.
        evaluated = [f for f in report.failures if "error" not in f]
        assert report.n_pass + len(evaluated) == 4
        assert [f["point"] for f in evaluated] == [{"track": "psi@x=200.0", "q": 0.99}]
        assert evaluated[0]["lower_margin"] < 0.0

    def test_rejects_decreasing_sequence(self):
        with pytest.raises(DomainError):
            check_limits((0.99, 0.9), (1.5,))

    def test_rejects_q_too_close_to_one(self):
        with pytest.raises(DomainError):
            check_limits((0.9, 0.999999), (1.5,))

    @pytest.mark.parametrize("q_sequence", [(), (0.99,), (0.9, math.nan, 0.99)])
    def test_rejects_fewer_than_two_q_values(self, q_sequence):
        # No q makes no comparison at all, and one q makes no decrease
        # comparison, so the check would pass on the terminal test alone; a
        # NaN, which compares false with every q, orders no pair.
        with pytest.raises(DomainError, match=">= 2 strictly increasing values"):
            check_limits(q_sequence, (1.0,))


class TestRegistry:
    def test_every_inequality_id_registered(self):
        assert set(INEQUALITY_IDS) <= set(ALL_CHECK_IDS)

    def test_convexity_slope_and_limit_checks_registered(self):
        assert set(EXTRA_CHECK_IDS) == {
            "convexity_f_thm_main",
            "convexity_g_thm_alpha",
            "slope_f_thm_main",
            "slope_g_thm_alpha",
            "limits",
        }
        assert set(ALL_CHECK_IDS) == set(INEQUALITY_IDS) | set(EXTRA_CHECK_IDS)

    def test_ids_in_registry_order(self):
        assert ALL_CHECK_IDS == INEQUALITY_IDS + EXTRA_CHECK_IDS == INEQUALITY_IDS + (
            "convexity_f_thm_main",
            "convexity_g_thm_alpha",
            "slope_f_thm_main",
            "slope_g_thm_alpha",
            "limits",
        )

    @pytest.mark.parametrize("check_id", EXTRA_CHECK_IDS)
    def test_corrupt_upper_needs_an_upper_bound(self, check_id):
        with pytest.raises(DomainError, match="no upper bound to halve"):
            run_check(check_id, seed=1, samples=5, corrupt_upper=True)

    @pytest.mark.parametrize("function_id", ["f_thm_main", "g_thm_alpha"])
    @pytest.mark.parametrize("max_terms", [None, 10])
    def test_one_report_over_every_q_and_alpha(self, monkeypatch, function_id, max_terms):
        # A registered convexity or slope check is the public check at each
        # (q, alpha) of the grid, folded into one report; under a 10-term
        # cap most points raise, so the failure list is capped across the
        # grid.  The grid's roots are solved, and cached, before the cap.
        seed, samples = 3, 200
        row = propcheck._PROOF_ROWS[function_id]
        combos = propcheck._combos(row)
        if max_terms is not None:
            monkeypatch.setattr(qspecial, "MAX_TERMS", max_terms)
        per_combo = -(-samples // len(combos))
        convexity = [
            check_geometric_convexity(function_id, sample(row.pair_domain, seed + i, per_combo), q, aux)
            for i, (q, aux) in enumerate(combos)
        ]
        grid = linspace(*row.slope_ends, per_combo + 1)
        slope = [check_lemma_monotone_slope(function_id, grid, q, aux) for q, aux in combos]
        for kind, parts in (("convexity", convexity), ("slope", slope)):
            report = run_check(f"{kind}_{function_id}", seed=seed, samples=samples)
            assert report.inequality_id == f"{kind}_{function_id}"
            assert report.n_samples == sum(p.n_samples for p in parts) >= samples
            assert report.n_pass == sum(p.n_pass for p in parts)
            assert report.n_errors == sum(p.n_errors for p in parts)
            assert report.worst_lower_margin == min(p.worst_lower_margin for p in parts)
            assert report.worst_upper_margin == min(p.worst_upper_margin for p in parts)
            assert report.failures == tuple(f for p in parts for f in p.failures)[:100]

    @pytest.mark.parametrize("check_id", ["thm_main", "limits"])
    def test_samples_must_be_an_integer(self, check_id):
        with pytest.raises(DomainError, match="samples must be an integer, got 2.5"):
            run_check(check_id, samples=2.5)

    @pytest.mark.parametrize("check_id", ["thm_main", "limits"])
    def test_samples_must_not_be_a_bool(self, check_id):
        # True would run one sample.
        with pytest.raises(DomainError, match="samples must be an integer, got True"):
            run_check(check_id, samples=True)

    def test_a_positional_config_raises_type_error(self):
        # Earlier releases took a series config after samples, and
        # corrupt_upper after it: an old positional call cannot land in
        # corrupt_upper, which is keyword-only.
        old_config = (10**6,)
        with pytest.raises(TypeError, match="positional argument"):
            run_check("thm_mvt", 1, 5, old_config)
        with pytest.raises(TypeError, match="positional argument"):
            certify("thm_mvt", sample(default_domain("thm_mvt"), 1, 5), old_config)

    def test_run_check_unknown_id(self):
        with pytest.raises(DomainError):
            run_check("mystery", samples=5)

    def test_run_check_small_workloads(self):
        for cid in ("thm_mvt", "convexity_f_thm_main", "slope_g_thm_alpha", "limits"):
            report = run_check(cid, seed=2, samples=40)
            assert report.n_pass == report.n_samples


class TestDeterminismAndSerialization:
    def test_reports_identical_apart_from_wall_time(self):
        for check_id, samples in (("thm_mvt", 80), *((cid, 20) for cid in ALL_CHECK_IDS)):
            a = run_check(check_id, seed=6, samples=samples)
            b = run_check(check_id, seed=6, samples=samples)
            assert a._replace(wall_time=0.0) == b._replace(wall_time=0.0), check_id
            da, db = report_to_dict(a), report_to_dict(b)
            da.pop("wall_time_s"), db.pop("wall_time_s")
            assert json.dumps(da) == json.dumps(db), check_id

    def test_thm_alpha_report_does_not_depend_on_the_root_cache(self, monkeypatch):
        monkeypatch.setattr(bounds, "_ROOT_CACHE", {})
        cold = run_check("thm_alpha", seed=7, samples=200)
        assert bounds._ROOT_CACHE
        warm = run_check("thm_alpha", seed=7, samples=200)
        assert cold._replace(wall_time=0.0) == warm._replace(wall_time=0.0)

    def test_root_cache_holds_the_last_q_alone(self):
        run_check("thm_alpha", seed=7, samples=200)
        assert len(bounds._ROOT_CACHE) <= 1

    def test_json_schema_fields(self):
        report = run_check("thm_mvt", seed=1, samples=10)
        payload = report_to_dict(report)
        assert payload["schema_version"] == 2
        for key in ("inequality_id", "n_samples", "n_pass", "n_errors", "worst_lower_margin",
                    "worst_upper_margin", "failures", "wall_time_s"):
            assert key in payload

    def test_n_errors_is_serialized(self):
        # A negative offset puts alpha below the root: both points raise, and
        # verify's exit 3 reads n_errors, so both report forms must show it.
        batch = SampleBatch(seed=0, count=2, points=((2.0, 1.0, 0.5, -0.5), (3.0, 1.0, 0.5, -0.2)))
        report = certify("thm_alpha", batch)
        assert report.n_errors == 2
        assert report_to_dict(report)["n_errors"] == 2
        assert "\nn_errors: 2\n" in report_to_text(report)
        assert report_to_dict(run_check("thm_mvt", seed=1, samples=10))["n_errors"] == 0

    def test_text_report_lists_findings(self):
        batch = sample(default_domain("thm_mvt"), 42, 30)
        report = certify("thm_mvt", batch, corrupt_upper=True)
        text = report_to_text(report)
        assert "inequality_id: thm_mvt" in text
        assert "failure:" in text
        assert f"n_samples: {report.n_samples}" in text


class TestFailureRecord:
    """Every check reports a failure as its point and both log margins, and
    an evaluation error as its point and the error."""

    MARGINS = {"point", "lower_margin", "upper_margin"}
    ERROR = {"point", "error"}

    @pytest.mark.parametrize("check_id", ALL_CHECK_IDS)
    def test_failing_points_carry_their_margins(self, check_id, monkeypatch):
        # Corrupted upper bounds fail the inequalities; slacks and a
        # tolerance that no margin can meet fail the other checks.
        monkeypatch.setattr(propcheck, "CONVEXITY_SLACK_LOG", -math.inf)
        monkeypatch.setattr(propcheck, "SLOPE_SLACK", -math.inf)
        monkeypatch.setattr(propcheck, "_LIMIT_REL_TOL", -1.0)
        corrupt = check_id in INEQUALITY_IDS
        report = run_check(check_id, seed=5, samples=20, corrupt_upper=corrupt)
        assert report.n_errors == 0 and report.failures, check_id
        for failure in report.failures:
            assert set(failure) == self.MARGINS, (check_id, failure)
            assert isinstance(failure["point"], dict)
            if not corrupt:
                assert failure["lower_margin"] == failure["upper_margin"], (check_id, failure)
        if check_id == "limits":
            assert set(report.failures[0]["point"]) == {"track", "q"}

    @pytest.mark.parametrize("check_id", ALL_CHECK_IDS)
    def test_every_failure_has_one_of_two_shapes(self, check_id, monkeypatch):
        # Under a 3-term cap the q-series checks raise at most points, and
        # with no root cached every psi_q root solve raises.
        monkeypatch.setattr(bounds, "_ROOT_CACHE", {})
        monkeypatch.setattr(qspecial, "MAX_TERMS", 3)
        report = run_check(check_id, seed=5, samples=20)
        for failure in report.failures:
            assert set(failure) in (self.MARGINS, self.ERROR), (check_id, failure)
        assert sum(set(f) == self.ERROR for f in report.failures) == min(report.n_errors, 100)

    def test_tally_add_takes_no_callable(self):
        import inspect

        assert list(inspect.signature(propcheck._Tally.add).parameters) == [
            "self", "point", "lower_margin", "upper_margin", "passed"]
        assert not hasattr(propcheck, "_safe_exp")
