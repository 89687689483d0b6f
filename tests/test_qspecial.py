import math
import sys

import numpy as np
import pytest
from mpmath import mp
from oracles import mp_ln_gamma_q, mp_ln_gamma_q_shift, mp_psi_q, mp_psi_q_m, mp_psi_q_root

import qgamma.qspecial as qspecial
from qgamma.classical import ln_gamma_classical, psi_classical
from qgamma.errors import BracketFailure, DomainError, NonConvergence, Overflow
from qgamma.qcore import REL_TOL, EvalConfig, QParam, q_bracket, q_factorial
from qgamma.qspecial import (
    euler_gamma_q,
    gamma_q,
    ln_gamma_q,
    psi_q,
    psi_q_m,
    psi_q_root,
)

# Frozen 200+-term extended-precision oracle values (tests/oracles.py).
PSI_Q_HALF_AT_1 = -0.42052903435604578
PSI_Q_HALF_AT_2 = 0.27261814620389953
GAMMA_Q_HALF_HALF = 1.5720327257863239
PSI_Q_M1_AT_2_HALF = 0.35747332431177599
PSI_Q_M2_AT_2_HALF = -0.36608906413673243
ROOT_Q_HALF = 1.4463627156098169
ROOT_Q_TENTH = 1.4013087307419981

# q where the product series needs over 10^6 terms.
NEAR_ONE_Q = (0.99999, 1.0 - 1e-9, 1.0 - 2e-12)


class TestLnGammaQ:
    def test_value_one_is_exactly_zero(self):
        for qv in (0.1, 0.5, 0.9, *NEAR_ONE_Q):
            assert ln_gamma_q(1.0, QParam(qv)).value == 0.0

    def test_value_two_is_zero(self):
        for qv in (0.1, 0.5, 0.9):
            assert ln_gamma_q(2.0, QParam(qv)).value == pytest.approx(0.0, abs=1e-12)

    def test_value_three(self):
        ev = ln_gamma_q(3.0, QParam(0.5))
        assert ev.value == pytest.approx(math.log(1.5), rel=1e-13)

    def test_rejects_nonpositive(self):
        for x in (0.0, -2.0):
            with pytest.raises(DomainError):
                ln_gamma_q(x, QParam(0.5))

    def test_functional_equation(self):
        """ln G(x+1) - ln G(x) = ln [x]_q."""
        rng = np.random.default_rng(11)
        for _ in range(2000):
            x = float(rng.uniform(1e-3, 50.0))
            q = QParam(float(rng.uniform(0.05, 0.95)))
            lhs = ln_gamma_q(x + 1.0, q).value - ln_gamma_q(x, q).value
            rhs = math.log(q_bracket(x, q))
            scale = max(1.0, abs(ln_gamma_q(x + 1.0, q).value))
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestQStirling:
    """ln_gamma_q by recurrence plus Euler-Maclaurin: the same few terms at
    every q, digits kept near the pole, and the max_terms budget."""

    @pytest.mark.parametrize("qv", [0.05, 0.5, 0.95, 0.999])
    def test_matches_product_oracle(self, qv):
        q = QParam(qv)
        for x in (0.05, 1.0, math.nextafter(10.0, 0.0), 10.0, 30.0):
            ev = ln_gamma_q(x, q)
            oracle = float(mp_ln_gamma_q(x, qv, terms=1))
            assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle), x

    @pytest.mark.parametrize("x", [1e-6, 1e-10, 1e-13, 1e-200])
    def test_near_the_pole(self, x):
        # 1 - q^x taken as 1 - exp(x ln q) keeps only about 16 + log10(x)
        # digits, none at all below x ~ 1e-16.
        for qv in (0.05, 0.5, 0.9):
            ev = ln_gamma_q(x, QParam(qv))
            with mp.workdps(400):
                oracle = float(mp_ln_gamma_q(x, qv, terms=1))
            assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle), qv

    def test_terms_uniform_in_q(self):
        # The product series needs about 30 / (1-q) terms: about 600 at q = 0.95.
        for x in np.geomspace(0.05, 30.0, 25):
            for one_minus_q in np.geomspace(1e-9, 0.95, 25):
                ev = ln_gamma_q(float(x), QParam(1.0 - float(one_minus_q)))
                assert 0 < ev.terms_used <= 40, (x, one_minus_q)

    @pytest.mark.parametrize("qv", NEAR_ONE_Q)
    def test_values_near_one(self, qv):
        q = QParam(qv)
        assert gamma_q(3.0, q).value == pytest.approx(1.0 + qv, rel=1e-12)
        # Criterion 1's tolerance; [x]_q is taken with expm1, since
        # 1 - q^x loses its digits as q -> 1.
        rng = np.random.default_rng(17)
        for x in rng.uniform(1e-6, 50.0, size=300):
            x = float(x)
            upper = ln_gamma_q(x + 1.0, q).value
            residual = upper - ln_gamma_q(x, q).value - math.log(-math.expm1(x * q.ln_q) / (1.0 - qv))
            assert abs(residual) <= 1e-10 * max(1.0, abs(upper)), x

    def test_approaches_classical_as_q_rises(self):
        for x in (0.05, 2.5, 30.0):
            devs = [abs(ln_gamma_q(x, QParam(qv)).value - ln_gamma_classical(x).value) for qv in NEAR_ONE_Q]
            assert devs[0] > devs[1] > devs[2], (x, devs)
            assert devs[2] <= 1e-9, (x, devs)

    def test_max_terms_raises_with_bounded_partial_value(self):
        q = QParam(0.5)
        full = ln_gamma_q(2.5, q)
        # Cut inside the recurrence, then before the last correction.
        for max_terms in (3, full.terms_used - 1):
            with pytest.raises(NonConvergence) as info:
                ln_gamma_q(2.5, q, EvalConfig(max_terms=max_terms))
            assert info.value.terms_used == max_terms
            assert abs(info.value.partial_value - full.value) <= info.value.error_estimate
        assert ln_gamma_q(2.5, q, EvalConfig(max_terms=full.terms_used)) == full


def _ratio_agrees(ev, ref):
    return abs(ev.value - ref) <= ev.error_estimate + 1e-14 * max(1.0, abs(ref))


class TestLnGammaRatio:
    """ln_gamma_q(x, q, y=y) = ln Gamma_q(x) - ln Gamma_q(y) as one sum."""

    # Both arguments below 1, pairs on either side of 1, and both above,
    # each at gaps d = x - y from 1e-10 to 10.
    LOWER = (0.05, 0.3, 0.9, 1.0, 2.5, 14.0, 29.0)
    GAPS = (1e-10, 1e-7, 1e-4, 0.1, 0.5, 1.0, 3.0, 10.0)

    @pytest.mark.parametrize("qv", [0.05, 0.5, 0.9, 0.95, 0.99])
    def test_matches_difference_of_oracles(self, qv):
        q = QParam(qv)
        for y in self.LOWER:
            ref_y = mp_ln_gamma_q(y, qv, terms=1)
            for d in self.GAPS:
                x = y + d
                ref = float(mp_ln_gamma_q(x, qv, terms=1) - ref_y)
                assert _ratio_agrees(ln_gamma_q(x, q, y=y), ref), (x, y)
                assert _ratio_agrees(ln_gamma_q(y, q, y=x), -ref), (y, x)

    @pytest.mark.parametrize("y, qv", [(299.4, 0.996), (199.6, 0.996), (40.0, 0.99)])
    def test_close_arguments_far_out(self, y, qv):
        # Tails with s T above 1 (z-series), below it (w-series) and, at
        # d = 100 from y = 40, on either side; each holds parts of size
        # T ln T or T ln s that must cancel between the two.
        ref_y = mp_ln_gamma_q(y, qv, terms=1)
        for d in (1.2e-7, 1e-3, 0.37, 100.0):
            ref = float(mp_ln_gamma_q(y + d, qv, terms=1) - ref_y)
            assert _ratio_agrees(ln_gamma_q(y + d, QParam(qv), y=y), ref), d

    @pytest.mark.parametrize("x, y", [(1e-305, 0.5), (3.0, 1e-305), (2e-305, 1e-305), (1e-305, 1e-300)])
    def test_where_s_t_underflows(self, x, y):
        # s t < 1e-300 on one side or both, where 1 - q^t is taken as s t.
        with mp.workdps(400):
            ref = float(mp_ln_gamma_q(x, 0.5, terms=1) - mp_ln_gamma_q(y, 0.5, terms=1))
        assert _ratio_agrees(ln_gamma_q(x, QParam(0.5), y=y), ref)

    @pytest.mark.parametrize("y", [1e-305, 1e-8, 0.3, 0.7, 1.0, 2.5, 29.75])
    def test_integer_gaps_near_q_one(self, y):
        # At q = 1 - 1e-6 the product oracle needs about 7e7 factors; the
        # functional equation gives integer gaps as a finite sum.
        qv = 1.0 - 1e-6
        for m in (1, 2, 5, 10):
            ref = float(mp_ln_gamma_q_shift(y, m, qv))
            assert _ratio_agrees(ln_gamma_q(y + m, QParam(qv), y=y), ref), m

    def test_exact_antisymmetry_and_zero_on_the_diagonal(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            a, b = (float(v) for v in np.exp(rng.uniform(-8.0, 4.0, size=2)))
            q = QParam(1.0 - float(np.exp(rng.uniform(math.log(1e-9), math.log(0.99)))))
            forward, backward = ln_gamma_q(a, q, y=b), ln_gamma_q(b, q, y=a)
            assert forward.value == -backward.value
            assert forward.error_estimate == backward.error_estimate
            assert forward.terms_used == backward.terms_used
            assert ln_gamma_q(a, q, y=a).value == 0.0

    def test_head_product_stays_in_range(self):
        # At q = 1 - 1e-9 the k = 0 ratio (1 - q^y)/(1 - q^x) is about 1e-289
        # and the k >= 1 ratios multiply to about 9! 1e-81: one product of
        # all of them would underflow to 0.0, whose log is no value.
        q, x, y = QParam(1.0 - 1e-9), 1e12, 1e-280
        forward, backward = ln_gamma_q(x, q, y=y), ln_gamma_q(y, q, y=x)
        assert math.isfinite(forward.value)
        assert forward.value == -backward.value
        assert forward.error_estimate == backward.error_estimate
        assert forward.terms_used == backward.terms_used
        at_x, at_y = ln_gamma_q(x, q), ln_gamma_q(y, q)
        bound = forward.error_estimate + at_x.error_estimate + at_y.error_estimate
        assert abs(forward.value - (at_x.value - at_y.value)) <= bound

    @pytest.mark.parametrize("x, y", [(2.5, 0.7), (0.7, 2.5), (4.0, 3.5), (3.5, 4.0)])
    def test_max_terms_raises_with_bounded_partial_value(self, x, y):
        q = QParam(0.5)
        full = ln_gamma_q(x, q, y=y)
        # Cut inside the recurrence, then before the last correction.
        for max_terms in (3, full.terms_used - 1):
            with pytest.raises(NonConvergence) as info:
                ln_gamma_q(x, q, EvalConfig(max_terms=max_terms), y=y)
            assert info.value.terms_used == max_terms
            assert abs(info.value.partial_value - full.value) <= info.value.error_estimate
        assert ln_gamma_q(x, q, EvalConfig(max_terms=full.terms_used), y=y) == full


class TestGammaQ:
    def test_value_one(self):
        assert gamma_q(1.0, QParam(0.25)).value == pytest.approx(1.0, rel=1e-14)

    def test_integer_values_match_q_factorial(self):
        for qv in (0.1, 0.3, 0.5, 0.7, 0.9):
            q = QParam(qv)
            for n in range(0, 21):
                assert gamma_q(n + 1.0, q).value == pytest.approx(q_factorial(n, q), rel=1e-12)

    def test_half_point_against_product_oracle(self):
        ev = gamma_q(0.5, QParam(0.5))
        assert ev.value == pytest.approx(GAMMA_Q_HALF_HALF, rel=1e-12)

    def test_overflow(self):
        with pytest.raises(Overflow):
            gamma_q(500.0, QParam(0.95), EvalConfig(max_terms=10**6))


class TestPsiQ:
    def test_value_at_one(self):
        ev = psi_q(1.0, QParam(0.5))
        assert abs(ev.value - PSI_Q_HALF_AT_1) <= ev.error_estimate + 1e-12

    def test_recurrence_step(self):
        # psi_q(x+1) - psi_q(x) = -(ln q) q^x / (1 - q^x)
        q = QParam(0.5)
        step = psi_q(2.0, q).value - psi_q(1.0, q).value
        assert step == pytest.approx(math.log(2), rel=1e-12)

    def test_large_x_limit(self):
        q = QParam(0.5)
        assert psi_q(200.0, q).value == pytest.approx(-math.log(0.5), rel=1e-13)

    def test_monotone_increasing(self):
        rng = np.random.default_rng(5)
        for qv in (0.1, 0.5, 0.9):
            q = QParam(qv)
            xs = np.sort(rng.uniform(0.05, 25.0, size=60))
            values = [psi_q(float(x), q).value for x in xs]
            for a, b in zip(values, values[1:]):
                assert a <= b + 1e-12

    def test_matches_ln_gamma_derivative(self):
        h = 1e-5
        for qv in (0.2, 0.5, 0.8):
            q = QParam(qv)
            for x in np.linspace(2.0, 12.0, 12):
                x = float(x)
                fd = (ln_gamma_q(x + h, q).value - ln_gamma_q(x - h, q).value) / (2 * h)
                assert psi_q(x, q).value == pytest.approx(fd, rel=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            psi_q(0.0, QParam(0.5))


class TestPsiQM:
    def test_sign_pattern(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = float(rng.uniform(0.2, 15.0))
            q = QParam(float(rng.uniform(0.05, 0.95)))
            assert psi_q_m(1, x, q).value > 0.0
            assert psi_q_m(2, x, q).value < 0.0
            assert psi_q_m(3, x, q).value > 0.0

    def test_first_derivative_oracle_value(self):
        ev = psi_q_m(1, 2.0, QParam(0.5))
        assert abs(ev.value - PSI_Q_M1_AT_2_HALF) <= ev.error_estimate + 1e-12

    def test_second_derivative_oracle_value(self):
        ev = psi_q_m(2, 2.0, QParam(0.5))
        assert abs(ev.value - PSI_Q_M2_AT_2_HALF) <= ev.error_estimate + 1e-12

    def test_matches_psi_q_derivative(self):
        h = 1e-5
        q = QParam(0.5)
        for x in (0.5, 1.0, 2.0, 5.0):
            fd = (psi_q(x + h, q).value - psi_q(x - h, q).value) / (2 * h)
            assert psi_q_m(1, x, q).value == pytest.approx(fd, rel=1e-6)

    def test_second_matches_first_derivative(self):
        h = 1e-5
        q = QParam(0.5)
        for x in (0.5, 1.0, 2.0, 5.0):
            fd = (psi_q_m(1, x + h, q).value - psi_q_m(1, x - h, q).value) / (2 * h)
            assert psi_q_m(2, x, q).value == pytest.approx(fd, rel=1e-6)

    def test_rejects_bad_m(self):
        with pytest.raises(DomainError):
            psi_q_m(0, 1.0, QParam(0.5))

    def test_eulerian_table_rows(self):
        assert len(qspecial._EULERIAN) == 17
        for m, row in enumerate(qspecial._EULERIAN):
            assert row == tuple(qspecial._eulerian(m)), m
            assert row == row[::-1], m

    def test_float_order_reads_the_table(self):
        q = QParam(0.5)
        for x in (0.3, 2.0):
            assert psi_q_m(2.0, x, q) == psi_q_m(2, x, q)

    @pytest.mark.parametrize("m", [16, 17])
    def test_last_table_order_and_the_first_built_one_match_oracle(self, m):
        # Every point has a head, which takes A_16 from the table and A_17
        # built per call.
        for x, qv in ((0.4, "0.5"), (1.5, "0.9"), (3.0, "0.2")):
            q = QParam(float(qv))
            assert qspecial._head_length(x, q) > 0, (x, qv)
            ev = psi_q_m(m, x, q)
            oracle = float(mp_psi_q_m(m, x, qv))
            assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle), (x, qv)

    @pytest.mark.parametrize("m", [250, 300])
    def test_large_m_matches_oracle(self, m):
        # The summands reach e^348 (m = 250) and e^500 (m = 300), past the
        # range of n^m alone, while the values stay in it.
        ev = psi_q_m(m, 30.0, QParam(0.5))
        oracle = float(mp_psi_q_m(m, 30, "0.5"))
        assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle)

    def test_summands_rising_from_below_the_floor_match_oracle(self):
        # At m = 2100, x = 1000, q = 0.5 the first summand underflows and the
        # second is about 1e-305, while they peak near n = m / (s x) ~ 3 at
        # about 3e-236: no stop test may run before the ratio holds, n >= 8.
        ev = psi_q_m(2100, 1000.0, QParam(0.5))
        oracle = float(mp_psi_q_m(2100, 1000, "0.5"))
        assert oracle == pytest.approx(-3.1400e-236, rel=1e-4)
        assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle)
        assert ev.terms_used >= 7

    @pytest.mark.parametrize("m, x, qv", [(1000, 316.0, 0.74), (800, 300.0, 0.78), (60, 5.0, 0.95)])
    def test_ratio_past_its_threshold_matches_oracle(self, m, x, qv):
        # (1+q^y)/2 is the ratio here, below (9/8)^m q^y; it holds only from
        # n0 = ceil(m / ln((1+q^y) / (2 q^y))) > 8.  In the first two cases
        # the first two summands are below 1e-300 and the value is about
        # -2.1e65 and -5.4e-8: a stop test before n0 would return 0.0.
        q = QParam(qv)
        y = x + qspecial._head_length(x, q)
        qy = qv**y
        assert 1.125**m * qy > (1.0 + qy) / 2.0
        assert m / math.log((1.0 + qy) / (2.0 * qy)) > 8.0
        ev = psi_q_m(m, x, q)
        oracle = float(mp_psi_q_m(m, x, str(qv)))
        assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle)

    def test_beyond_the_double_range_raises_overflow(self):
        # One summand is about e^50000.
        with pytest.raises(Overflow, match=r"psi_q_m\(7000, 2.0, 0.5\) exceeds the double range"):
            psi_q_m(7000, 2.0, QParam(0.5))

    @pytest.mark.parametrize("qv", [1e-10, 0.9])
    def test_scale_or_sum_beyond_the_range_is_no_bare_overflow_error(self, qv):
        # At m = 300, x = 30 the scale (ln q)^301 alone is about e^944 at
        # q = 1e-10, and the n-sum alone passes e^1000 at q = 0.9, while the
        # values are in range: s^301 is taken into each tail summand, so
        # they come out right, neither an OverflowError nor an Overflow.
        ev = psi_q_m(300, 30.0, QParam(qv))
        oracle = float(mp_psi_q_m(300, 30, str(qv), terms=40))
        assert oracle == pytest.approx({1e-10: -1.0640e110, 0.9: -7.4529e169}[qv], rel=1e-4)
        assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle)

    def test_cap_errors_share_one_message(self):
        q = QParam(0.9)
        calls = (
            (lambda cfg: ln_gamma_q(2.5, q, cfg), 5),  # in the recurrence
            (lambda cfg: ln_gamma_q(2.5, q, cfg), 10),  # in the corrections
            (lambda cfg: psi_q(2.5, q, cfg), 3),  # in the head
            (lambda cfg: psi_q(2.5, q, cfg), 20),  # in the tail
            (lambda cfg: psi_q_m(2, 2.5, q, cfg), 20),
        )
        for call, max_terms in calls:
            with pytest.raises(NonConvergence, match=rf"^no convergence within {max_terms} terms \(estimate "):
                call(EvalConfig(max_terms=max_terms))


class TestPositiveArguments:
    def test_every_function_rejects_infinite_and_nonpositive_x(self):
        q = QParam(0.5)
        calls = (
            lambda x: ln_gamma_q(x, q),
            lambda y: ln_gamma_q(2.0, q, y=y),
            lambda x: gamma_q(x, q),
            lambda x: psi_q(x, q),
            lambda x: psi_q_m(2, x, q),
            ln_gamma_classical,
            psi_classical,
        )
        for call in calls:
            for bad in (math.inf, math.nan, 0.0, -2.0):
                with pytest.raises(DomainError, match="must be finite and positive"):
                    call(bad)


class TestShiftedTail:
    """psi_q and psi_q_m as K = max(0, ceil(sqrt(L/s) - x)) recurrence steps
    plus the n-form at x + K, L = -ln REL_TOL and s = -ln q."""

    def test_terms_grow_like_root_of_one_over_one_minus_q(self):
        # Head and tail take about sqrt(L/s) terms each.  The n-form alone
        # needs about L / (s x): over 10^6 at x = 0.05, 1 - q = 1e-5.
        log_tol = -math.log(REL_TOL)
        for one_minus_q in np.geomspace(1e-5, 0.95, 25):
            q = QParam(1.0 - float(one_minus_q))
            cap = 3.0 * (math.sqrt(log_tol / -q.ln_q) + 1.0)
            for x in np.geomspace(0.05, 30.0, 25):
                x = float(x)
                for m in range(4):
                    ev = psi_q(x, q) if m == 0 else psi_q_m(m, x, q)
                    assert 0 < ev.terms_used <= cap, (x, one_minus_q, m)

    @pytest.mark.parametrize("x, qv", [(30.0, 1e-20), (2.0, 1e-300), (0.1, 1e-320)])
    def test_tail_ratio_below_the_double_range(self, x, qv):
        # q^(x+K) underflows to 0, and the ratio passed on must stay positive.
        # 400 digits resolve -ln(1-q) ~ q.
        for m in range(3):
            ev = psi_q(x, QParam(qv)) if m == 0 else psi_q_m(m, x, QParam(qv))
            with mp.workdps(400):
                oracle = float(mp_psi_q(x, qv, terms=1) if m == 0 else mp_psi_q_m(m, x, qv, terms=1))
            assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle), m

    @pytest.mark.parametrize("m", [0, 2])
    def test_max_terms_raises_with_bounded_partial_value(self, m):
        q = QParam(0.9)

        def evaluate(cfg):
            return psi_q(2.5, q, cfg) if m == 0 else psi_q_m(m, 2.5, q, cfg)

        full = evaluate(EvalConfig())
        # Cut inside the head, where it ends (K = 15 here) and in the tail.
        for max_terms in (3, 15, full.terms_used - 1):
            with pytest.raises(NonConvergence) as info:
                evaluate(EvalConfig(max_terms=max_terms))
            assert info.value.terms_used == max_terms
            assert abs(info.value.partial_value - full.value) <= info.value.error_estimate
        assert evaluate(EvalConfig(max_terms=full.terms_used)) == full

    @pytest.mark.parametrize("qv", [0.01, 0.05, 0.1, 0.2, 0.3, 0.5])
    def test_psi_q_m_error_estimate_bounds_the_tail(self, qv):
        # The n-form tail left after N = terms_used - K terms, in 40 digits.
        # Stops after few tail terms need a ratio that holds from n = 1.
        q = QParam(qv)
        for x in (0.05, 0.5, 1.0, 3.0, 10.0, 30.0):
            k_end = qspecial._head_length(x, q)
            for m in (1, 2, 3):
                ev = psi_q_m(m, x, q)
                remainder = _mp_psi_q_m_tail(m, x + k_end, qv, ev.terms_used - k_end)
                assert remainder <= ev.error_estimate * (1.0 + 1e-12), (x, m, ev.terms_used - k_end)

    def test_psi_q_m_cap_in_the_first_tail_terms_is_bounded(self):
        # K = 5 here: caps of 6-10 terms stop after 1-5 tail terms.
        q = QParam(0.5)
        full = psi_q_m(2, 2.5, q)
        for max_terms in range(6, 11):
            with pytest.raises(NonConvergence) as info:
                psi_q_m(2, 2.5, q, EvalConfig(max_terms=max_terms))
            assert abs(info.value.partial_value - full.value) <= info.value.error_estimate, max_terms


def _mp_psi_q_m_tail(m: int, y: float, qv: float, n_summed: int) -> float:
    """|ln q|^(m+1) sum_{n > n_summed} n^m q^(ny) / (1-q^n), in 40 digits."""
    with mp.workdps(40):
        q = mp.mpf(qv)
        acc = mp.mpf(0)
        n = n_summed + 1
        while True:
            term = mp.mpf(n) ** m * q ** (n * mp.mpf(y)) / (1 - q**n)
            acc += term
            if term <= acc * mp.mpf(10) ** -30:
                break
            n += 1
        return float(abs(mp.log(q)) ** (m + 1) * acc)


BELOW_ONE_X = (0.05, 0.2, 0.7, math.nextafter(1.0, 0.0))


class TestBelowOne:
    """psi_q and psi_q_m below x = 1, where the n-form alone has ratio q^x
    near 1."""

    @pytest.mark.parametrize("qv", [0.05, 0.5, 0.9, 0.95])
    def test_matches_n_form_oracle(self, qv):
        q = QParam(qv)
        for x in BELOW_ONE_X:
            ev = psi_q(x, q)
            oracle = float(mp_psi_q(x, qv, terms=1))
            assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle), (x, 0)
            for m in (1, 2, 3):
                ev = psi_q_m(m, x, q)
                oracle = float(mp_psi_q_m(m, x, qv, terms=1))
                assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle), (x, m)

    @pytest.mark.parametrize("qv", [0.05, 0.5, 0.9, 0.95])
    def test_psi_q_continuous_across_one(self, qv):
        q = QParam(qv)
        below, at = psi_q(math.nextafter(1.0, 0.0), q), psi_q(1.0, q)
        # psi_q itself changes by psi_q'(1) times the step, and both values
        # are rounded: allow that besides the two truncation bounds.
        step = psi_q_m(1, 1.0, q).value * (1.0 - math.nextafter(1.0, 0.0)) + 4.0 * math.ulp(at.value)
        assert abs(below.value - at.value) <= below.error_estimate + at.error_estimate + step

    def test_terms_at_small_x_high_q(self):
        # The n-form needs over 10,000 terms here: its ratio is q^x = 0.9974.
        q = QParam(0.95)
        for ev in (psi_q(0.05, q), psi_q_m(1, 0.05, q), psi_q_m(2, 0.05, q)):
            assert 0 < ev.terms_used <= 80

    @pytest.mark.parametrize(
        "m, x, leading",
        [
            (0, 1e-200, -1e200),
            (1, 1e-150, 1e300),
            (2, 1e-100, -2e300),
            (0, 5e-324, None),
            (1, 1e-200, None),
            (2, 1e-200, None),
            (1, 5e-324, None),
            (2, 5e-324, None),
        ],
    )
    def test_near_the_pole(self, m, x, leading):
        # psi_q^(m)(x) ~ (-1)^(m+1) m! / x^(m+1) as x -> 0: a finite value
        # when that is in the double range, Overflow when it is not.
        for qv in (0.05, 0.5, 0.95, 1.0 - 1e-9):
            q = QParam(qv)
            evaluate = (lambda: psi_q(x, q)) if m == 0 else (lambda: psi_q_m(m, x, q))
            if leading is None:
                with pytest.raises(Overflow):
                    evaluate()
            else:
                assert evaluate().value == pytest.approx(leading, rel=1e-12), qv


class TestEulerGammaQ:
    def test_is_exact_negation_of_psi_at_one(self):
        for qv in (0.1, 0.5, 0.9):
            q = QParam(qv)
            assert euler_gamma_q(q).value + psi_q(1.0, q).value == 0.0

    def test_value_at_half(self):
        ev = euler_gamma_q(QParam(0.5))
        assert abs(ev.value - (-PSI_Q_HALF_AT_1)) <= ev.error_estimate + 1e-12

    def test_near_one_approaches_classical_constant(self):
        assert euler_gamma_q(QParam(0.999)).value == pytest.approx(0.577215664, abs=1e-2)


class TestPsiQRoot:
    def test_root_at_half(self):
        res = psi_q_root(QParam(0.5))
        assert 1.0 < res.root < 2.0
        assert res.root == pytest.approx(ROOT_Q_HALF, abs=1e-10)

    def test_root_at_tenth(self):
        res = psi_q_root(QParam(0.1))
        assert res.root == pytest.approx(ROOT_Q_TENTH, abs=1e-10)

    # 0.0499, 0.05, 0.95, 0.9501 and 0.99 sit at the edges of the fitted
    # guess's range, on both sides.
    @pytest.mark.parametrize("qv", [1e-30, 1e-6, 0.0499, 0.05, 0.3, 0.5, 0.77, 0.95, 0.9501, 0.99])
    def test_matches_oracle(self, qv):
        # Bisection on [1, 2] to width 2^-45; the raw partial sum keeps
        # 50 / -ln q terms, so its tail is below 1e-20 for x >= 1.
        oracle = mp_psi_q_root(qv, lo=1.0, hi=2.0, iters=45, terms=math.ceil(50.0 / -math.log(qv)))
        assert psi_q_root(QParam(qv)).root == pytest.approx(float(oracle), abs=1e-11)

    def test_least_normal_q_matches_oracle(self):
        # Near its zero psi_q is of order q, and at 40 digits the oracle
        # rounds -ln(1-q) to 0; 400 digits resolve it.
        qv = sys.float_info.min
        with mp.workdps(400):
            oracle = mp_psi_q_root(qv, lo=1.0, hi=2.0, iters=45, terms=1)
        assert psi_q_root(QParam(qv)).root == pytest.approx(float(oracle), abs=1e-12)

    @pytest.mark.parametrize("qv", [math.nextafter(sys.float_info.min, 0.0), 1e-320, 5e-324])
    def test_subnormal_q_raises(self, qv):
        # Below the least normal double psi_q's signs near its zero have
        # lost their bits: at q = 1e-320 a "certified" root was 1.3e-4 off.
        with pytest.raises(DomainError, match="subnormal"):
            psi_q_root(QParam(qv))

    def test_invariants_across_q(self):
        # The last three hit psi_q == 0 exactly at a trial.
        extremes = [
            1e-300, 1e-100, 1e-30, 1e-12, 1e-6, 1e-3, 0.99, 0.999, 0.9999, 0.99999, 1.0 - 1e-8,
            0.9999978995096964, 0.999996912074033, 0.999999933814106,
        ]
        for qv in [*np.arange(0.05, 0.951, 0.05), *extremes]:
            q = QParam(float(qv))
            res = psi_q_root(q)
            assert res.bracket_low < res.root < res.bracket_high
            assert psi_q(res.bracket_low, q).value < 0.0 < psi_q(res.bracket_high, q).value
            assert res.bracket_high - res.bracket_low <= 1e-12
            assert abs(res.residual) <= 1e-10
            if euler_gamma_q(q).value > 0.0:
                assert res.root > 1.0

    def test_psi_evaluations_per_solve(self, monkeypatch):
        # Bisection takes about 44 psi_q calls, the secant from [1, x0] about
        # 8.7; from the fitted guess a solve takes exactly 3: the bracket's
        # two ends, already at most 1e-12 apart, and the midpoint residual.
        # Counting through the module names also pins that the solver calls
        # psi_q by that name, which the benchmark tracer relies on, and
        # never psi_q_m.
        calls = []
        slopes = []

        def counting_psi_q(*args, **kwargs):
            calls.append(args[0])
            return psi_q(*args, **kwargs)

        def counting_psi_q_m(*args, **kwargs):
            slopes.append(args[1])
            return psi_q_m(*args, **kwargs)

        monkeypatch.setattr(qspecial, "psi_q", counting_psi_q)
        monkeypatch.setattr(qspecial, "psi_q_m", counting_psi_q_m)
        rng = np.random.default_rng(1801)
        one_minus_q = np.exp(rng.uniform(math.log(1e-5), math.log(0.95), size=600))
        for qv in [*np.arange(0.05, 0.951, 0.05), *(1.0 - one_minus_q)]:
            calls.clear()
            slopes.clear()
            res = qspecial.psi_q_root(QParam(float(qv)))
            assert len(calls) == 3, (qv, len(calls))
            assert len(slopes) == 0, (qv, len(slopes))
            assert res.bracket_high - res.bracket_low <= 1e-12, qv

    def test_no_argument_evaluated_twice(self, monkeypatch):
        # The final midpoint can land on a point already evaluated; its
        # value is reused, not recomputed.  No solve calls psi_q_m.
        calls = []
        slopes = []

        def counting_psi_q(*args, **kwargs):
            calls.append(args[0])
            return psi_q(*args, **kwargs)

        def counting_psi_q_m(*args, **kwargs):
            slopes.append(args[1])
            return psi_q_m(*args, **kwargs)

        monkeypatch.setattr(qspecial, "psi_q", counting_psi_q)
        monkeypatch.setattr(qspecial, "psi_q_m", counting_psi_q_m)
        rng = np.random.default_rng(31)
        for one_minus_q in np.exp(rng.uniform(math.log(0.05), math.log(0.95), size=600)):
            calls.clear()
            qspecial.psi_q_root(QParam(1.0 - float(one_minus_q)))
            assert len(set(calls)) == len(calls), (1.0 - float(one_minus_q), calls)
        # Below the guess's range the solve starts at [1, x0].
        for ln_q in rng.uniform(math.log(1e-30), math.log(0.05), size=200):
            q = QParam(math.exp(float(ln_q)))
            assert qspecial._root_guess(q) is None
            calls.clear()
            qspecial.psi_q_root(q)
            assert len(set(calls)) == len(calls), (q.q, calls)
            assert slopes == [], (q.q, slopes)

    def test_wide_bracket_solves_stay_cheap(self, monkeypatch):
        # From [1, x0] a solve takes 19 psi_q calls on average and at most
        # 35 over 3,000 q log-uniform in (1e-300, 0.05); bound it at 40.
        calls = []

        def counting_psi_q(*args, **kwargs):
            calls.append(args[0])
            return psi_q(*args, **kwargs)

        monkeypatch.setattr(qspecial, "psi_q", counting_psi_q)
        rng = np.random.default_rng(1703)
        for ln_q in rng.uniform(math.log(1e-300), math.log(0.05), size=2000):
            q = QParam(math.exp(float(ln_q)))
            calls.clear()
            res = qspecial.psi_q_root(q)
            assert res.bracket_low < res.root < res.bracket_high, q.q
            assert len(calls) <= 40, (q.q, len(calls))

    def test_no_sign_change_on_the_wide_bracket_raises(self, monkeypatch):
        # With psi_q shifted right by 10 it is positive on [1, x0] and at the
        # guess's ends; the solve raises after those four calls, searching
        # no further.
        calls = []

        def shifted_psi_q(x, q, cfg):
            calls.append(x)
            return psi_q(x + 10.0, q, cfg)

        monkeypatch.setattr(qspecial, "psi_q", shifted_psi_q)
        q = QParam(0.5)
        guess = qspecial._root_guess(q)
        half = qspecial._ROOT_GUESS_HALF_WIDTH
        with pytest.raises(BracketFailure):
            qspecial.psi_q_root(q)
        assert calls == [guess - half, guess + half, 1.0, qspecial._CLASSICAL_ROOT]

    def test_guess_that_misses_falls_back_to_the_wide_bracket(self, monkeypatch):
        # A guess whose ends do not enclose the root hands over to [1, x0];
        # its two values stay in the solve's memo, and the root is the one
        # the wide bracket finds on its own.
        calls = []

        def counting_psi_q(*args, **kwargs):
            calls.append(args[0])
            return psi_q(*args, **kwargs)

        true_guess = qspecial._root_guess
        monkeypatch.setattr(qspecial, "psi_q", counting_psi_q)
        for qv, miss in ((0.3, 1e-3), (0.7, -1e-3), (0.95, 0.2)):
            q = QParam(qv)
            expected = psi_q_root(q).root
            monkeypatch.setattr(qspecial, "_root_guess", lambda q, miss=miss: true_guess(q) + miss)
            calls.clear()
            res = qspecial.psi_q_root(q)
            monkeypatch.setattr(qspecial, "_root_guess", true_guess)
            assert len(calls) > 5 and 1.0 in calls and qspecial._CLASSICAL_ROOT in calls, (qv, calls)
            assert len(set(calls)) == len(calls), (qv, calls)
            assert res.bracket_low < res.root < res.bracket_high
            assert res.root == pytest.approx(expected, abs=1e-12)

    def test_guess_within_half_the_bracket(self):
        # The fitted guess stays within half the bracket's half-width of
        # psi_q's zero, bisected from [1, x0] to adjacent doubles without
        # the solver: uniform q and log-uniform 1 - q over [0.05, 0.95], and
        # 1 - q log-uniform down to 1e-5 beyond it.
        def bisected_zero(q):
            lo, hi = 1.0, qspecial._CLASSICAL_ROOT
            assert psi_q(lo, q).value < 0.0 < psi_q(hi, q).value
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                f_mid = psi_q(mid, q).value
                if f_mid == 0.0:
                    return mid
                lo, hi = (mid, hi) if f_mid < 0.0 else (lo, mid)
            return mid

        rng = np.random.default_rng(1601)
        lo, hi = math.log(0.05), math.log(0.95)
        qs = [
            *np.linspace(0.05, 0.95, 1000),
            *(1.0 - np.exp(rng.uniform(lo, hi, size=1000))),
            *(1.0 - np.exp(rng.uniform(math.log(1e-5), lo, size=200))),
            1.0 - 1e-5,
        ]
        assert len(qs) >= 2000
        worst = 0.0
        for qv in qs:
            q = QParam(float(qv))
            worst = max(worst, abs(qspecial._root_guess(q) - bisected_zero(q)))
        assert worst <= 0.5 * qspecial._ROOT_GUESS_HALF_WIDTH, worst

    def test_sign_change_around_root(self):
        for qv in (0.2, 0.6, 0.9):
            q = QParam(qv)
            root = psi_q_root(q).root
            assert psi_q(root - 1e-6, q).value < 0.0 < psi_q(root + 1e-6, q).value
