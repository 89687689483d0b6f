import inspect
import math

import numpy as np
import pytest
from mpmath import mp, mpf

from oracles import (
    mp_ln_gamma_classical,
    mp_psi_classical,
    mp_psi_q,
    mp_ratio_gamma_q,
)
from qgamma.constants import CERT_SLACK_LOG
from qgamma.errors import AlphaBelowRoot, DomainError, NonConvergence
from qgamma.qcore import EvalConfig, QParam, q_bracket
from qgamma import bounds
from qgamma.bounds import (
    BoundPair,
    DomainSpec,
    INEQUALITIES,
    INEQUALITY_IDS,
    cached_psi_root,
    cor_half_shift_bounds,
    cor_mu_lambda_bounds,
    cor_one_half_bounds,
    default_domain,
    keckic_vasic_bounds,
    passes,
    ratio_gamma_q,
    remark_rearranged_bounds,
    thm_alpha_bounds,
    thm_main_bounds,
    thm_mvt_bounds,
    zhang_xu_situ_bounds,
)


def mp_thm_main_triple(x, y, q):
    x, y, q = mpf(x), mpf(y), mpf(q)
    shift = (q**x - q**y) / (1 - q)
    def slope(t):
        return t * (-mp.log(q) * q**t / (1 - q) + mp_psi_q(t, q))
    ldiff = mp.log(x) - mp.log(y)
    ratio = mp_ratio_gamma_q(x, y, q)
    return (mp.e ** (slope(y) * ldiff + shift), ratio, mp.e ** (slope(x) * ldiff + shift))


def mp_thm_alpha_triple(x, y, alpha, q):
    x, y, alpha, q = mpf(x), mpf(y), mpf(alpha), mpf(q)
    common = (y - x) + mp.log(x + alpha) - mp.log(y + alpha)
    ldiff = mp.log(x) - mp.log(y)
    def slope(t):
        return t * ((t + alpha - 1) / (t + alpha) + mp_psi_q(t + alpha, q))
    ratio = mp_ratio_gamma_q(x + alpha, y + alpha, q)
    return (mp.e ** (common + slope(y) * ldiff), ratio, mp.e ** (common + slope(x) * ldiff))


def mp_thm_mvt_triple(x, y, q):
    x, y, q = mpf(x), mpf(y), mpf(q)
    ratio = mp_ratio_gamma_q(x, y, q)
    return (mp.e ** ((x - y) * mp_psi_q(y, q)), ratio, mp.e ** ((x - y) * mp_psi_q(x, q)))


def assert_triple(pair, expected, rel=1e-10):
    assert pair.lower == pytest.approx(float(expected[0]), rel=rel)
    assert pair.ratio == pytest.approx(float(expected[1]), rel=rel)
    assert pair.upper == pytest.approx(float(expected[2]), rel=rel)


class TestRatioGammaQ:
    def test_identical_arguments(self):
        assert ratio_gamma_q(3.0, 3.0, QParam(0.5)) == 1.0

    def test_one_step(self):
        assert ratio_gamma_q(4.0, 3.0, QParam(0.5)) == pytest.approx(1.75, rel=1e-12)

    def test_against_product_oracle(self):
        expected = float(mp_ratio_gamma_q("2.5", "1.25", "0.4"))
        assert ratio_gamma_q(2.5, 1.25, QParam(0.4)) == pytest.approx(expected, rel=1e-12)


class TestThmMain:
    def test_collapse_at_equal_arguments(self):
        pair = thm_main_bounds(2.0, 2.0, QParam(0.5))
        assert pair.lower == pair.ratio == pair.upper == 1.0

    def test_unit_ratio_point(self):
        pair = thm_main_bounds(2.0, 1.0, QParam(0.5))
        assert pair.ratio == pytest.approx(1.0, abs=1e-12)
        assert pair.lower <= 1.0 <= pair.upper

    def test_triple_against_oracle(self):
        pair = thm_main_bounds(3.0, 1.5, QParam(0.3))
        assert_triple(pair, mp_thm_main_triple(3, "1.5", "0.3"))

    def test_rejects_below_one(self):
        with pytest.raises(DomainError):
            thm_main_bounds(0.5, 2.0, QParam(0.5))
        thm_main_bounds(0.5, 2.0, QParam(0.5), force=True)  # exploratory escape hatch

    def test_antisymmetry_exact_in_log_space(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = float(rng.uniform(1.0, 25.0))
            y = float(rng.uniform(1.0, 25.0))
            q = QParam(float(rng.uniform(0.05, 0.95)))
            forward = thm_main_bounds(x, y, q)
            backward = thm_main_bounds(y, x, q)
            assert forward.log_lower == -backward.log_upper
            assert forward.log_upper == -backward.log_lower
            assert forward.log_ratio == -backward.log_ratio
            assert forward.lower == pytest.approx(1.0 / backward.upper, rel=1e-12)
            # thm_mvt needs x > y; the swapped call is exploratory.
            high, low = max(x, y), min(x, y)
            forward = thm_mvt_bounds(high, low, q)
            backward = thm_mvt_bounds(low, high, q, force=True)
            assert forward.log_lower == -backward.log_upper
            assert forward.log_upper == -backward.log_lower
            assert forward.log_ratio == -backward.log_ratio

    def test_ordering_holds(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            x = float(rng.uniform(1.0, 30.0))
            y = float(rng.uniform(1.0, 30.0))
            q = QParam(float(rng.uniform(0.05, 0.95)))
            pair = thm_main_bounds(x, y, q)
            assert pair.log_lower <= pair.log_ratio + 1e-9
            assert pair.log_ratio <= pair.log_upper + 1e-9


class TestCorHalfShift:
    def test_equals_main_specialization_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            x = float(rng.uniform(0.05, 20.0))
            q = QParam(float(rng.uniform(0.05, 0.95)))
            spec = cor_half_shift_bounds(x, q)
            direct = thm_main_bounds(x + 1.0, x + 0.5, q, force=True)
            assert spec == direct
            assert (spec.lower, spec.ratio, spec.upper) == (direct.lower, direct.ratio, direct.upper)
            assert (spec.log_lower, spec.log_ratio, spec.log_upper) == (
                direct.log_lower, direct.log_ratio, direct.log_upper)

    def test_ratio_at_one(self):
        pair = cor_half_shift_bounds(1.0, QParam(0.5))
        expected = float(mp_ratio_gamma_q(2, "1.5", "0.5"))
        assert pair.ratio == pytest.approx(expected, rel=1e-12)

    def test_triple_at_quarter(self):
        pair = cor_half_shift_bounds(0.5, QParam(0.25))
        assert_triple(pair, mp_thm_main_triple("1.5", 1, "0.25"))


class TestThmAlpha:
    def test_collapse_at_equal_arguments(self):
        pair = thm_alpha_bounds(1.0, 1.0, 5.0, QParam(0.5))
        assert pair.lower == pair.ratio == pair.upper == 1.0

    def test_triple_against_oracle(self):
        pair = thm_alpha_bounds(2.0, 1.0, 2.0, QParam(0.5))
        assert_triple(pair, mp_thm_alpha_triple(2, 1, 2, "0.5"))
        assert pair.ratio == pytest.approx(1.75, rel=1e-12)  # G_q(4)/G_q(3)

    def test_alpha_below_root_rejected(self):
        with pytest.raises(AlphaBelowRoot):
            thm_alpha_bounds(2.0, 1.0, 0.5, QParam(0.5))

    def test_force_overrides_hypothesis_check(self):
        pair = thm_alpha_bounds(2.0, 1.0, 0.5, QParam(0.5), force=True)
        assert math.isfinite(pair.ratio)

    @pytest.mark.parametrize("alpha", [1e4, 1e8])
    def test_bounds_at_the_arguments_the_sums_carry(self, alpha):
        # The ratio is taken at the rounded sums x + alpha and y + alpha; the
        # bounds must be taken at the x and y those sums carry.  Taken at
        # the unrounded y = 1 + 1e-9, the lower margin was -3.1e-13 at
        # alpha = 1e4 and the upper margin -6.9e-10 at alpha = 1e8.
        q = QParam(0.5)
        x, y = 1.0, 1.0 + 1e-9
        x_eff, y_eff = (x + alpha) - alpha, (y + alpha) - alpha
        assert y_eff != y
        pair = thm_alpha_bounds(x, y, alpha, q)
        assert pair == thm_alpha_bounds(x_eff, y_eff, alpha, q)
        assert pair.log_ratio - pair.log_lower >= -1e-15
        assert pair.log_upper - pair.log_ratio >= -1e-15

    def test_arguments_lost_in_the_sum_rejected(self):
        # 1e16 + 1 rounds to 1e16: the ratio would be that of x = 0.
        with pytest.raises(DomainError):
            thm_alpha_bounds(1.0, 2.0, 1e16, QParam(0.5))
        with pytest.raises(DomainError):
            thm_alpha_bounds(2.0, 1.0, 1e16, QParam(0.5))

    def test_arguments_rounded_in_the_sum(self):
        # 1e16 + 3 rounds to 1e16 + 4 and 1e16 + 2.5 to 1e16 + 2, so the pair
        # is the one at (4, 2): ratio Gamma_q(a + 4)/Gamma_q(a + 2), about
        # (1 - q)^-2 = 4 at q = 1/2, inside its bounds.
        q = QParam(0.5)
        pair = thm_alpha_bounds(3.0, 2.5, 1e16, q)
        assert pair == thm_alpha_bounds(4.0, 2.0, 1e16, q)
        assert pair.log_ratio == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
        assert passes(pair.log_ratio - pair.log_lower, pair.log_upper - pair.log_ratio)


class TestThmMvt:
    def test_reference_point(self):
        pair = thm_mvt_bounds(2.0, 1.0, QParam(0.5))
        assert pair.strict
        assert pair.ratio == pytest.approx(1.0, abs=1e-12)
        assert pair.lower == pytest.approx(float(mp.e ** mp_psi_q(1, "0.5")), rel=1e-12)
        assert pair.upper == pytest.approx(float(mp.e ** mp_psi_q(2, "0.5")), rel=1e-12)

    def test_narrow_gap_tends_to_one(self):
        pair = thm_mvt_bounds(1.0 + 1e-9, 1.0, QParam(0.5))
        for value in (pair.lower, pair.ratio, pair.upper):
            assert value == pytest.approx(1.0, abs=1e-8)

    def test_triple_against_oracle(self):
        pair = thm_mvt_bounds(5.0, 0.5, QParam(0.8))
        assert_triple(pair, mp_thm_mvt_triple(5, "0.5", "0.8"))

    def test_strict_interior_margins(self):
        # strictness spot checks: interior points of each strict-family op
        cases = (
            thm_mvt_bounds(3.0, 1.5, QParam(0.4)),
            thm_mvt_bounds(10.0, 2.0, QParam(0.8)),
            cor_mu_lambda_bounds(2.0, 1.5, 0.25, QParam(0.6)),
            cor_one_half_bounds(1.5, QParam(0.3)),
            remark_rearranged_bounds(2.5, QParam(0.7)),
        )
        for pair in cases:
            assert pair.strict
            assert pair.log_ratio - pair.log_lower > 1e-12
            assert pair.log_upper - pair.log_ratio > 1e-12

    def test_rejects_unordered(self):
        with pytest.raises(DomainError):
            thm_mvt_bounds(1.0, 2.0, QParam(0.5))
        with pytest.raises(DomainError):
            thm_mvt_bounds(2.0, -1.0, QParam(0.5))


class TestMvtCorollaries:
    def test_mu_lambda_equals_mvt(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = float(rng.uniform(0.05, 20.0))
            lam = float(rng.uniform(0.05, 3.0))
            mu = lam + float(rng.uniform(1e-3, 3.0))
            q = QParam(float(rng.uniform(0.05, 0.95)))
            spec = cor_mu_lambda_bounds(x, mu, lam, q)
            direct = thm_mvt_bounds(x + mu, x + lam, q)
            assert spec == direct
            assert (spec.lower, spec.ratio, spec.upper) == (direct.lower, direct.ratio, direct.upper)

    def test_mu_one_reduces_to_one_half_form(self):
        q = QParam(0.5)
        a = cor_mu_lambda_bounds(1.0, 1.0, 0.5, q)
        b = cor_one_half_bounds(1.0, q)
        assert (a.lower, a.ratio, a.upper) == (b.lower, b.ratio, b.upper)

    def test_mu_lambda_triple_against_oracle(self):
        pair = cor_mu_lambda_bounds(2.0, 1.5, 0.25, QParam(0.6))
        assert_triple(pair, mp_thm_mvt_triple(3.5, 2.25, "0.6"))

    def test_mu_lambda_domain_errors(self):
        q = QParam(0.5)
        with pytest.raises(DomainError):
            cor_mu_lambda_bounds(1.0, 0.5, 0.5, q)
        with pytest.raises(DomainError):
            cor_mu_lambda_bounds(1.0, 0.5, -0.1, q)

    def test_one_half_equals_mvt(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = float(rng.uniform(0.05, 20.0))
            q = QParam(float(rng.uniform(0.05, 0.95)))
            spec = cor_one_half_bounds(x, q)
            direct = thm_mvt_bounds(x + 1.0, x + 0.5, q)
            assert spec == direct
            assert (spec.lower, spec.ratio, spec.upper) == (direct.lower, direct.ratio, direct.upper)

    def test_one_half_triple_against_oracle(self):
        pair = cor_one_half_bounds(1.0, QParam(0.5))
        assert_triple(pair, mp_thm_mvt_triple(2, "1.5", "0.5"))

    def test_one_half_large_x_limit(self):
        q = QParam(0.5)
        pair = cor_one_half_bounds(60.0, q)
        limit = (1.0 - 0.5) ** -0.5
        assert pair.lower == pytest.approx(limit, rel=1e-8)
        assert pair.upper == pytest.approx(limit, rel=1e-8)


class TestRemarkRearranged:
    def test_componentwise_scaling_exact(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            x = float(rng.uniform(0.05, 20.0))
            q = QParam(float(rng.uniform(0.05, 0.95)))
            remark = remark_rearranged_bounds(x, q)
            base = cor_one_half_bounds(x, q)
            bracket = q_bracket(x, q)
            assert remark.lower == base.lower / bracket
            assert remark.ratio == base.ratio / bracket
            assert remark.upper == base.upper / bracket

    def test_ratio_at_one(self):
        pair = remark_rearranged_bounds(1.0, QParam(0.5))
        expected = float(mp_ratio_gamma_q(1, "1.5", "0.5"))
        assert pair.ratio == pytest.approx(expected, rel=1e-12)

    def test_triple_against_oracle(self):
        pair = remark_rearranged_bounds(2.0, QParam(0.3))
        q = mpf("0.3")
        scale = (1 - q) / (1 - q**2)
        lower, ratio, upper = mp_thm_mvt_triple(3, "2.5", "0.3")
        assert_triple(pair, (lower * scale, ratio * scale, upper * scale))


class TestKeckicVasic:
    def test_collapse_at_equal_arguments(self):
        pair = keckic_vasic_bounds(2.0, 2.0)
        assert pair.lower == pair.ratio == pair.upper == 1.0

    def test_three_two_point(self):
        pair = keckic_vasic_bounds(3.0, 2.0)
        assert pair.ratio == pytest.approx(2.0, rel=1e-7)
        assert pair.lower == pytest.approx(9.0 / (2.0 * math.e), rel=1e-12)
        assert pair.upper == pytest.approx(3.0**2.5 * math.exp(-1.0) / 2.0**1.5, rel=1e-12)

    def test_triple_against_oracle(self):
        pair = keckic_vasic_bounds(5.0, 1.5)
        x, y = mpf(5), mpf("1.5")
        ratio = mp.e ** (mp_ln_gamma_classical(x) - mp_ln_gamma_classical(y))
        lower = x ** (x - 1) * mp.e**y / (y ** (y - 1) * mp.e**x)
        upper = x ** (x - mpf("0.5")) * mp.e**y / (y ** (y - mpf("0.5")) * mp.e**x)
        assert pair.lower == pytest.approx(float(lower), rel=1e-12)
        assert pair.upper == pytest.approx(float(upper), rel=1e-12)
        assert pair.ratio == pytest.approx(float(ratio), rel=1e-7)

    def test_rejects_outside_domain(self):
        with pytest.raises(DomainError):
            keckic_vasic_bounds(2.0, 3.0)  # needs x >= y
        with pytest.raises(DomainError):
            keckic_vasic_bounds(2.0, 0.9)  # needs y > 1


class TestZhangXuSitu:
    def test_collapse_at_equal_arguments(self):
        pair = zhang_xu_situ_bounds(1.7, 1.7)
        assert pair.lower == pair.ratio == pair.upper == 1.0

    def test_two_one_point(self):
        pair = zhang_xu_situ_bounds(2.0, 1.0)
        assert pair.ratio == pytest.approx(1.0, rel=1e-7)
        x, y = mpf(2), mpf(1)
        lower = (x**x / y**y) * (x / y) ** (y * (mp_psi_classical(y) - mp.log(y))) * mp.e ** (y - x)
        upper = (x**x / y**y) * (x / y) ** (x * (mp_psi_classical(x) - mp.log(x))) * mp.e ** (y - x)
        assert pair.lower == pytest.approx(float(lower), rel=1e-7)
        assert pair.upper == pytest.approx(float(upper), rel=1e-7)

    def test_allows_x_below_y(self):
        pair = zhang_xu_situ_bounds(0.5, 1.5)
        x, y = mpf("0.5"), mpf("1.5")
        ratio = mp.e ** (mp_ln_gamma_classical(x) - mp_ln_gamma_classical(y))
        lower = (x**x / y**y) * (x / y) ** (y * (mp_psi_classical(y) - mp.log(y))) * mp.e ** (y - x)
        upper = (x**x / y**y) * (x / y) ** (x * (mp_psi_classical(x) - mp.log(x))) * mp.e ** (y - x)
        assert pair.lower == pytest.approx(float(lower), rel=1e-7)
        assert pair.ratio == pytest.approx(float(ratio), rel=1e-7)
        assert pair.upper == pytest.approx(float(upper), rel=1e-7)
        assert pair.log_lower <= pair.log_ratio <= pair.log_upper

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            zhang_xu_situ_bounds(-1.0, 2.0)


class TestQToOneConsistency:
    def test_mvt_matches_classical_triple_at_high_q(self):
        from qgamma.classical import ln_gamma_classical, psi_classical

        q = QParam(0.999)
        for x, y in ((2.0, 1.0), (3.5, 1.25)):
            pair = thm_mvt_bounds(x, y, q)
            classical = (
                math.exp((x - y) * psi_classical(y).value),
                math.exp(ln_gamma_classical(x).value - ln_gamma_classical(y).value),
                math.exp((x - y) * psi_classical(x).value),
            )
            for got, ref in zip((pair.lower, pair.ratio, pair.upper), classical):
                assert abs(got / ref - 1.0) <= 0.02


class TestRootCacheAndDomains:
    def test_cached_root_matches_fresh_root(self):
        from qgamma.qspecial import psi_q_root

        q = QParam(0.35)
        assert cached_psi_root(q) == psi_q_root(q).root
        assert cached_psi_root(q) == cached_psi_root(QParam(0.35))

    def test_root_cache_honours_the_term_cap(self, monkeypatch):
        # The q = 0.9 solve needs 32-term psi_q calls, so a 20-term cap fails
        # it whether or not a default-cap root is cached.
        monkeypatch.setattr(bounds, "_ROOT_CACHE", {})
        capped = EvalConfig(max_terms=20)
        with pytest.raises(NonConvergence):
            thm_alpha_bounds(27.0, 26.0, 3.0, QParam(0.9), capped)
        cached_psi_root(QParam(0.9))
        with pytest.raises(NonConvergence):
            thm_alpha_bounds(27.0, 26.0, 3.0, QParam(0.9), capped)

    def test_default_domains_cover_all_ids(self):
        for ineq in INEQUALITY_IDS:
            spec = default_domain(ineq)
            assert spec.x_range[0] <= spec.x_range[1]

    def test_unknown_id_rejected(self):
        with pytest.raises(DomainError):
            default_domain("nope")

    def test_registry_args_match_operation_signatures(self):
        # The CLI assembles points and table sweeps call fn(*args, QParam(q))
        # in this order, so the slots must be the operation's leading
        # positional parameters, with q next exactly when it is a slot.
        assert INEQUALITY_IDS == tuple(INEQUALITIES)
        for ineq, spec in INEQUALITIES.items():
            params = list(inspect.signature(getattr(bounds, f"{ineq}_bounds")).parameters)
            slots = [name for name in spec.args if name != "q"]
            assert params[: len(slots)] == slots, ineq
            assert (params[len(slots) : len(slots) + 1] == ["q"]) == ("q" in spec.args), ineq
            assert "q" not in spec.args or spec.args[-1] == "q", ineq

    def test_domain_spec_validation(self):
        with pytest.raises(DomainError):
            DomainSpec((2.0, 1.0))
        with pytest.raises(DomainError):
            DomainSpec((1.0, 2.0), None, (0.0, 0.5))
        with pytest.raises(DomainError):
            DomainSpec((1.0, 2.0), constraint="sideways")
        with pytest.raises(DomainError):
            DomainSpec((1.0, 2.0), constraint="x_greater_than_y")
        with pytest.raises(DomainError):
            DomainSpec((1.0, 2.0), constraint="mu_greater_than_lambda")
        with pytest.raises(DomainError):
            DomainSpec((1.0, 2.0), (1.0, 2.0), None, (0.0, 1.0), "alpha_at_least_root")
        with pytest.raises(DomainError):
            DomainSpec((1.0, 2.0), constraint="alpha_at_least_root")


def test_bound_pair_has_no_inequality_id():
    # A corollary returns its theorem's pair as it is (the *_equals_* tests
    # compare them field for field), so no field can name the inequality.
    assert "inequality_id" not in BoundPair._fields


class TestPositivityRule:
    """Every argument that must be positive must also be finite."""

    CALLS = {
        "thm_main": lambda v: thm_main_bounds(v, 2.0, QParam(0.5)),
        "cor_half_shift": lambda v: cor_half_shift_bounds(v, QParam(0.5)),
        "thm_alpha": lambda v: thm_alpha_bounds(1.0, v, 4.0, QParam(0.5)),
        "thm_mvt": lambda v: thm_mvt_bounds(v, 1.0, QParam(0.5)),
        "cor_mu_lambda": lambda v: cor_mu_lambda_bounds(v, 2.0, 1.0, QParam(0.5)),
        "cor_one_half": lambda v: cor_one_half_bounds(v, QParam(0.5)),
        "remark_rearranged": lambda v: remark_rearranged_bounds(v, QParam(0.5)),
        "keckic_vasic": lambda v: keckic_vasic_bounds(v, 2.0),
        "zhang_xu_situ": lambda v: zhang_xu_situ_bounds(1.0, v),
    }

    def test_every_operation_rejects_infinite_and_nonpositive_arguments(self):
        assert set(self.CALLS) == set(INEQUALITY_IDS)
        for ineq, call in self.CALLS.items():
            for bad in (math.inf, math.nan, 0.0, -1.0):
                with pytest.raises(DomainError, match="must be finite and positive"):
                    call(bad)


class TestVerdict:
    def test_slack_boundary(self):
        half, double = -0.5 * CERT_SLACK_LOG, -2.0 * CERT_SLACK_LOG
        assert passes(half, half)
        assert passes(0.0, 0.0)
        assert not passes(double, 0.0)
        assert not passes(0.0, double)
        assert not passes(double, double)
