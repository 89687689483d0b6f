import json
import math
import random

import numpy as np
import pytest
from mpmath import mp, mpf

from oracles import mp_ln_gamma_q, mp_q_bracket
from qgamma.errors import AlphaBelowRoot, DomainError, RejectionOverflow
from qgamma import bounds, propcheck
from qgamma.qcore import EvalConfig, QParam, q_bracket_derivative
from qgamma.constants import MIN_PAIR_GAP
from qgamma.qspecial import psi_q, psi_q_root
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

    def test_alpha_constraint_sits_above_root(self):
        batch = sample(default_domain("thm_alpha"), 5, 50)
        for x, y, q, alpha in batch.points:
            assert alpha >= cached_psi_root(QParam(q))

    def test_classical_points_have_no_q(self):
        batch = sample(default_domain("keckic_vasic"), 5, 20)
        assert all(p[2] is None for p in batch.points)

    def test_unsatisfiable_constraint(self):
        spec = DomainSpec((0.0, 1.0), (5.0, 6.0), (0.05, 0.95), None, "x_greater_than_y")
        with pytest.raises(RejectionOverflow):
            sample(spec, 11, 3)

    def test_count_validation(self):
        with pytest.raises(DomainError):
            sample(default_domain("thm_main"), 1, 0)

    def test_q_range_respected(self):
        batch = sample(default_domain("thm_main"), 19, 500)
        qs = [p[2] for p in batch.points]
        assert min(qs) >= 0.05 and max(qs) <= 0.95

    def test_stream_is_pinned(self):
        # A change of stream or of draw order changes these literals.  aux is
        # the psi_q root plus the drawn offset, so it carries the solver's
        # rounding.
        expected = [
            (12.806564629234781, 0.5489645666922054, 0.887626285781104, 3.6913304202388844),
            (14.742600722572048, 13.550154774087082, 0.3084113786732331, 2.3034110634881584),
            (8.467340302721146, 0.6444545277895034, 0.9048181587181494, 6.513169798401669),
        ]
        batch = sample(default_domain("thm_alpha"), 42, 3)
        for point, (x, y, q, aux) in zip(batch.points, expected):
            assert point[:3] == (x, y, q)
            assert point[3] == pytest.approx(aux, rel=1e-12)

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

    @pytest.mark.parametrize("seed", [-1, -42, 1.5])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # random.Random(-s) would replay the stream of s.
        with pytest.raises(DomainError):
            sample(default_domain("thm_main"), seed, 5)


def _reference_points(spec: DomainSpec, seed: int, count: int) -> tuple:
    """The documented draw order, from random.Random(seed).uniform: x, then
    y, then q (log-uniform in 1 - q over ranges wider than a decade), then
    the alpha offset above the psi_q root, or mu and lambda, or aux."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
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
        if spec.constraint == "alpha_at_least_root":
            aux = psi_q_root(QParam(q)).root + rng.uniform(*spec.aux_range)
        elif spec.constraint == "mu_greater_than_lambda":
            mu = rng.uniform(*spec.aux_range)
            lam = rng.uniform(*spec.aux_range)
            if not mu > lam + MIN_PAIR_GAP:
                continue
            aux = (mu, lam)
        elif spec.aux_range is not None:
            aux = rng.uniform(*spec.aux_range)
        if spec.constraint == "x_greater_than_y" and not x > y + MIN_PAIR_GAP:
            continue
        points.append((x, y, q, aux))
    return tuple(points)


class TestLinspace:
    @pytest.mark.parametrize("lo, hi", [(1.0, 10.0), (0.05, 10.0), (0.1, 5.0), (-3.0, 7.25), (1e-3, 0.999)])
    def test_matches_numpy_bit_for_bit(self, lo, hi):
        for n in range(2, 400):
            assert linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist(), n

    @pytest.mark.parametrize("function_id, lo", [("f_thm_main", 1.0), ("g_thm_alpha", 0.05)])
    def test_slope_grid_is_numpy_linspace(self, function_id, lo, monkeypatch):
        grids = []

        def record(fid, grid, *args):
            grids.append(grid)
            return check_lemma_monotone_slope(fid, grid, *args)

        monkeypatch.setattr(propcheck, "check_lemma_monotone_slope", record)
        report = run_check(f"slope_{function_id}", seed=1, samples=40)
        assert report.n_pass == report.n_samples
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
        # alpha far below the root: every point errors out
        points = ((2.0, 1.0, 0.5, 0.1), (3.0, 1.0, 0.5, 0.2))
        batch = SampleBatch(seed=0, count=2, points=points)
        report = certify("thm_alpha", batch)
        assert report.n_pass == 0
        assert len(report.failures) == 2
        assert all("error" in f for f in report.failures)

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

    def test_g_failed_root_solve_is_recorded_per_point(self):
        # The check solves the root under its own 3-term config, which cannot
        # converge, even with the default-config root already cached.
        cached_psi_root(QParam(0.5))
        batch = sample(DomainSpec((0.05, 10.0), (0.05, 10.0), None), 1, 5)
        report = check_geometric_convexity("g_thm_alpha", batch, QParam(0.5), 3.0, EvalConfig(max_terms=3))
        assert report.n_samples == report.n_errors == 5
        assert report.n_pass == 0
        assert all("no convergence" in f["error"] for f in report.failures)

    def test_f_pairs_below_one_rejected_as_errors(self):
        points = ((0.5, 2.0, None, None),)
        batch = SampleBatch(seed=0, count=1, points=points)
        report = check_geometric_convexity("f_thm_main", batch, QParam(0.5))
        assert report.n_pass == 0
        assert "error" in report.failures[0]


class TestSlopeCheck:
    def test_single_point_grid_trivially_passes(self):
        report = check_lemma_monotone_slope("f_thm_main", [2.0], QParam(0.5))
        assert report.n_samples == 0
        assert report.n_pass == 0
        assert report.failures == ()

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

    def test_g_failed_root_solve_is_recorded_per_comparison(self):
        cached_psi_root(QParam(0.5))
        cfg = EvalConfig(max_terms=3)
        report = check_lemma_monotone_slope("g_thm_alpha", [0.5, 1.0, 2.0, 4.0], QParam(0.5), 3.0, cfg)
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

    def test_rejects_decreasing_sequence(self):
        with pytest.raises(DomainError):
            check_limits((0.99, 0.9), (1.5,))

    def test_rejects_q_too_close_to_one(self):
        with pytest.raises(DomainError):
            check_limits((0.9, 0.999999), (1.5,))


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

    def test_json_schema_fields(self):
        report = run_check("thm_mvt", seed=1, samples=10)
        payload = report_to_dict(report)
        assert payload["schema_version"] == 1
        for key in ("inequality_id", "n_samples", "n_pass", "worst_lower_margin",
                    "worst_upper_margin", "failures", "wall_time_s"):
            assert key in payload

    def test_text_report_lists_findings(self):
        batch = sample(default_domain("thm_mvt"), 42, 30)
        report = certify("thm_mvt", batch, corrupt_upper=True)
        text = report_to_text(report)
        assert "inequality_id: thm_mvt" in text
        assert "failure:" in text
        assert f"n_samples: {report.n_samples}" in text
