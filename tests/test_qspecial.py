import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp
import rounding
from oracles import (mp_ln_gamma_q, mp_ln_gamma_q_shift, mp_psi_q, mp_psi_q_abel_plana, mp_psi_q_m, mp_psi_q_root,
                     mp_q_factorial)

import qgamma.qspecial as qspecial
from qgamma.classical import ln_gamma_classical, psi_classical
from qgamma.constants import BERNOULLI, MAX_EXP
from qgamma.errors import BracketFailure, DomainError, NonConvergence, Overflow
from qgamma.qcore import (ABS_TOL, MAX_TERMS, REL_TOL, Evaluation, QParam, cap_error, new_record, q_bracket,
                          require_positive, sum_geometric_decay)
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


def _head_length(x: float, q: QParam) -> int:
    """K = max(0, ceil(sqrt(L/s) - x)), s = -ln q and L = -ln REL_TOL: the
    number of recurrence steps that minimises K + L / (s (x+K)), the head
    terms plus the tail terms at ratio q^(x+K), as psi_q and psi_q_m take
    it."""
    return max(0, math.ceil(math.sqrt(-math.log(REL_TOL) / -q.ln_q) - x))


def _cap(monkeypatch, max_terms):
    """Cap psi_q and psi_q^(m) at ``max_terms`` terms by patching
    qspecial.MAX_TERMS, the test seam that reaches their cap paths
    cheaply; None keeps the fixed cap.  Returns the cap in force."""
    if max_terms is not None:
        monkeypatch.setattr(qspecial, "MAX_TERMS", max_terms)
    return qspecial.MAX_TERMS


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
    every q, and digits kept near the pole."""

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
        # The product series needs about 30 / (1-q) terms: about 600 at
        # q = 0.95.  Below the split s = -ln q = _QSERIES_S (q = 0.6126),
        # ln_gamma_q takes N <= 10 recurrence terms and at most seven
        # corrections; from it on, N <= 10 and a q-series whose terms fall
        # by u = q^(y+N) <= exp(-sqrt(36.87 s)), at most 17 in all (see
        # _QSERIES_S).  The grid's top two 1 - q, 0.40 and 0.95, are on the
        # q-series side; TestQSeries covers it down to q = exp(-700).
        for x in np.geomspace(0.05, 30.0, 25):
            for one_minus_q in np.geomspace(1e-9, 0.95, 25):
                ev = ln_gamma_q(float(x), QParam(1.0 - float(one_minus_q)))
                assert 0 < ev.terms_used <= 17, (x, one_minus_q)

    def test_recurrence_steps_follow_the_smaller_argument(self):
        # Below the split (s = -ln q < _QSERIES_S), N = max(0, ceil(10 -
        # min(x, y))) recurrence steps, the shift of classical._shift, so
        # that both tails start at T >= 10; from min(x, y) = 10 on, a call
        # takes its corrections alone.  N is the exact ceiling: 10 - y rounds
        # to an integer just below 1 and 2.  From the split on, N = max(0,
        # ceil(sqrt(Lambda/s) - min(x, y))), Lambda = -ln(REL_TOL/1024), the
        # balance of head and q-series that psi_q's K strikes: a balance, not
        # a bound, so the test rounds it as the code does.  At x = y every
        # series term is 0, so the call takes its N head terms and t_1 = 0.
        lower = (1e-300, 0.3, math.nextafter(1.0, 0.0), 1.0, math.nextafter(2.0, 0.0), 2.5, 9.5,
                 math.nextafter(10.0, 0.0), 10.0, 14.0, 29.0, 1e4)
        lam = -math.log(REL_TOL / 1024.0)
        for qv in (1e-300, 0.05, 0.5, 0.6, 0.7, 0.9, 0.999, 1.0 - 1e-9):
            q = QParam(qv)
            s = -q.ln_q
            qseries = s >= qspecial._QSERIES_S
            assert qseries is (qv <= 0.6), qv
            for y in lower:
                if qseries:
                    n, most = max(0, math.ceil(math.sqrt(lam / s) - y)), 17
                else:
                    n = max(0, math.ceil(10 - Fraction(y)))
                    most = n + 7
                for d in (0.0, 1e-7, 0.5, 3.0, 100.0):
                    terms = ln_gamma_q(y + d, q, y=y).terms_used
                    assert n <= terms <= most, (y, d, qv, terms)
                    if qseries and d == 0.0:
                        assert terms == n + 1, (y, qv, terms)
                    if not qseries and y >= 10.0:
                        assert terms <= 7, (y, d, qv, terms)

    def test_eighth_correction_below_the_least_stop(self):
        # The eighth correction B_16/16! s^15 Li_{-14}(u), u = e^(-sT), as
        # ln_gamma_q forms it (u (s / (1-u))^15 A_14(u)), over 20,000 s
        # spanning every q: at T = 10, where it is largest, since
        # Li_{-14}(u) rises with u.  It stays below the least stop
        # REL_TOL / 1024, so ln_gamma_q never adds it.
        s = np.geomspace(1e-12, 745.0, 20_000)
        u = np.exp(-10.0 * s)
        a14 = np.zeros_like(u)
        for c in _eulerian_explicit(14):
            a14 = a14 * u + c
        eighth = abs(BERNOULLI[7] / math.factorial(16)) * u * (s / -np.expm1(-10.0 * s)) ** 15 * a14
        worst = float(eighth.max())
        assert worst < REL_TOL * qspecial._EM_STOP
        assert worst == pytest.approx(4.56e-17, rel=0.01)
        assert s[eighth.argmax()] == pytest.approx(1.49, rel=0.01)

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


def _ratio_agrees(ev, ref):
    return abs(ev.value - ref) <= ev.error_estimate + 1e-14 * max(1.0, abs(ref))


class TestLnGammaRatio:
    """ln_gamma_q(x, q, y=y) = ln Gamma_q(x) - ln Gamma_q(y) as one sum."""

    # Both arguments below 1, pairs on either side of 1, and both above,
    # each at gaps d = x - y from 1e-10 to 10; y on either side of 10 takes
    # one recurrence step or none.
    LOWER = (0.05, 0.3, 0.9, 1.0, 2.5, math.nextafter(10.0, 0.0), 10.0, 14.0, 29.0)
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

    @pytest.mark.parametrize("y", [1e-305, 1e-8, 0.3, 0.7, 1.0, 2.5, math.nextafter(10.0, 0.0), 10.0, 29.75])
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


def _split_q_pair() -> tuple:
    """(q_at, q_below): the largest q whose s = -ln q is at least
    _QSERIES_S, and the next double above it, whose s is below."""
    q = math.exp(-qspecial._QSERIES_S)
    while -QParam(q).ln_q < qspecial._QSERIES_S:
        q = math.nextafter(q, 0.0)
    while -QParam(math.nextafter(q, 1.0)).ln_q >= qspecial._QSERIES_S:
        q = math.nextafter(q, 1.0)
    return q, math.nextafter(q, 1.0)


class TestQSeries:
    """ln_gamma_q from s = -ln q >= _QSERIES_S: a head of N recurrence
    pairs and the q-series sum_k u^k (e^(ka) - 1) / (k (1-q^k)), against
    the product oracle."""

    @staticmethod
    def _points(seed: int, count: int) -> list:
        # s log-uniform over [_QSERIES_S, 700], x and y log-uniform over
        # [1e-3, 30], and every third pair close: y (1 + d), d log-uniform
        # over [1e-10, 1e-1].
        rng = np.random.default_rng(seed)
        points = []
        for i in range(count):
            s = math.exp(rng.uniform(math.log(qspecial._QSERIES_S), math.log(700.0)))
            y = 10.0 ** rng.uniform(-3.0, math.log10(30.0))
            if i % 3 == 0:
                x = y * (1.0 + 10.0 ** rng.uniform(-10.0, -1.0))
            else:
                x = 10.0 ** rng.uniform(-3.0, math.log10(30.0))
            points.append((float(x), float(y), math.exp(-s)))
        return points

    def test_matches_difference_of_oracles(self):
        points = self._points(39, 330)
        misses = []
        for x, y, qv in points:
            q = QParam(qv)
            assert -q.ln_q >= qspecial._QSERIES_S, qv
            ref = float(mp_ln_gamma_q(x, qv, terms=1) - mp_ln_gamma_q(y, qv, terms=1))
            forward, backward = ln_gamma_q(x, q, y=y), ln_gamma_q(y, q, y=x)
            if not (_ratio_agrees(forward, ref) and _ratio_agrees(backward, -ref)):
                misses.append((x, y, qv, forward, ref))
            assert forward.value == -backward.value
            assert forward.error_estimate == backward.error_estimate
            assert forward.terms_used == backward.terms_used <= 17, (x, y, qv, forward)
            assert ln_gamma_q(x, q, y=x).value == 0.0
        assert misses == []

    def test_both_paths_agree_at_the_split(self, monkeypatch):
        # q_at takes the q-series and q_below, the next double up, the
        # q-Stirling tails; at each, either path (forced by moving the
        # split) agrees with the oracle and with the other.
        q_at, q_below = _split_q_pair()
        points = self._points(40, 24)
        for qv, path in ((q_at, "series"), (q_below, "stirling")):
            q = QParam(qv)
            default = [ln_gamma_q(x, q, y=y) for x, y, _ in points]
            monkeypatch.setattr(qspecial, "_QSERIES_S", 0.0)
            series = [ln_gamma_q(x, q, y=y) for x, y, _ in points]
            monkeypatch.setattr(qspecial, "_QSERIES_S", math.inf)
            stirling = [ln_gamma_q(x, q, y=y) for x, y, _ in points]
            monkeypatch.undo()
            assert default == (series if path == "series" else stirling), qv
            for (x, y, _), a, b in zip(points, series, stirling):
                ref = float(mp_ln_gamma_q(x, qv, terms=1) - mp_ln_gamma_q(y, qv, terms=1))
                assert _ratio_agrees(a, ref) and _ratio_agrees(b, ref), (x, y, qv, a, b, ref)
                assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate + 1e-14 * max(1.0, abs(ref))

    def test_split_is_the_least_s_within_17_terms(self):
        # The worst case of _QSERIES_S's comment: tol = REL_TOL / 1024 (|value|
        # <= 1) and e^(ka) -> 0, so the series adds terms up to the first k
        # with u^k / (k (1-q^k) (1-u)) <= tol, after N = ceil(c - y) pairs,
        # c = sqrt(Lambda/s).  Over y in (0, c + 2], with y just above and
        # below each point where N steps, N plus that k is at most 17 at the
        # split and above it, and 18 at s = 0.48.
        lam = -math.log(qspecial._EM_TOL)

        def most_terms(s):
            c = math.sqrt(lam / s)
            q = math.exp(-s)
            frac = c - math.floor(c)
            ys = [1e-300, *np.linspace(1e-9, c + 2.0, 801)]
            ys += [frac + j + e for j in range(int(c) + 3) for e in (-1e-9, 1e-9) if frac + j + e > 0]
            worst = 0
            for y in ys:
                n = max(0, math.ceil(c - float(y)))
                u = math.exp(-s * (float(y) + n))
                k = 1
                while u ** k / (k * (1.0 - q ** k) * (1.0 - u)) > qspecial._EM_TOL:
                    k += 1
                worst = max(worst, n + k)
            return worst

        assert most_terms(qspecial._QSERIES_S) == 17
        assert most_terms(0.48) == 18
        assert all(most_terms(float(s)) <= 17 for s in np.geomspace(qspecial._QSERIES_S, 745.0, 40))


class TestGammaQ:
    def test_value_one(self):
        assert gamma_q(1.0, QParam(0.25)).value == pytest.approx(1.0, rel=1e-14)

    def test_integer_values_match_q_factorial(self):
        for qv in (0.1, 0.3, 0.5, 0.7, 0.9):
            q = QParam(qv)
            for n in range(0, 21):
                assert gamma_q(n + 1.0, q).value == pytest.approx(float(mp_q_factorial(n, qv)), rel=1e-12)

    def test_half_point_against_product_oracle(self):
        ev = gamma_q(0.5, QParam(0.5))
        assert ev.value == pytest.approx(GAMMA_Q_HALF_HALF, rel=1e-12)

    def test_overflow(self):
        with pytest.raises(Overflow):
            gamma_q(500.0, QParam(0.95))

    def test_exp_overflows_where_math_exp_does(self):
        # ln of the largest double is 709.78271: a log of 709.782 has a
        # finite exponential, and one of 709.79 does not.
        ev = qspecial._exp_evaluation(Evaluation(709.782, 1e-16, 12), "label")
        assert ev == (math.exp(709.782), math.exp(709.782) * 1e-16, 12)
        assert ev.value == pytest.approx(1.7964e308, rel=1e-4)
        with pytest.raises(Overflow, match=r"^label exceeds the double range \(ln = 709.79\)$"):
            qspecial._exp_evaluation(Evaluation(709.79, 1e-16, 12), "label")


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

    def test_n_series_side_within_16_terms(self):
        # From s = -ln q >= _QSERIES_S on, K <= ceil(sqrt(-ln REL_TOL / 0.49))
        # = 8 head terms and a tail at ratio q^(x+K) <= 0.0197 or less: at
        # most 16 terms, far from the cap, up to the split's own q.
        q_split, _ = _split_q_pair()
        for qv in (*np.geomspace(1e-300, 0.6, 40), q_split):
            q = QParam(float(qv))
            assert -q.ln_q >= qspecial._QSERIES_S
            for x in np.geomspace(1e-300, 100.0, 120):
                assert 0 < psi_q(float(x), q).terms_used <= 16, (x, qv)


def _psi_agrees(ev, ref, qv):
    """|value - oracle| within the bound and 1e-14 of max(1, |psi_q|,
    |ln(1-q)|): the n-series side adds -ln(1-q) to a sum that cancels most
    of it, so its rounding is of that size (the q-Stirling side takes
    ln [T]_q as one log of a ratio)."""
    return abs(ev.value - ref) <= ev.error_estimate + 1e-14 * max(1.0, abs(ref), abs(math.log1p(-qv)))


class TestPsiQStirling:
    """psi_q below s = -ln q = _QSERIES_S (q > 0.6126): N = max(0,
    ceil(10 - x)) recurrence terms, ln [T]_q + h'(T)/2 at T = x + N and at
    most seven corrections, against the Abel-Plana oracle, which holds up
    to q = 1 where the n-form needs millions of terms."""

    @staticmethod
    def _points(seed: int, count: int) -> list:
        # x log-uniform over [0.05, 30] and 1 - q over [1e-5, 0.387], the
        # whole q-Stirling side above 1 - 1e-5.
        rng = np.random.default_rng(seed)
        return [
            (float(math.exp(rng.uniform(math.log(0.05), math.log(30.0)))),
             1.0 - float(math.exp(rng.uniform(math.log(1e-5), math.log(0.387)))))
            for _ in range(count)
        ]

    def test_matches_the_oracle_within_17_terms(self):
        points = self._points(41, 300)
        # Each side of x = 10, where N falls from 1 to 0.
        points += [(x, qv) for _, qv in points[:10] for x in (math.nextafter(10.0, 0.0), 10.0)]
        misses = []
        for x, qv in points:
            q = QParam(qv)
            assert -q.ln_q < qspecial._QSERIES_S, qv
            ev = psi_q(x, q)
            ref = float(mp_psi_q_abel_plana(x, qv))
            if not (_psi_agrees(ev, ref, qv) and 0 < ev.terms_used <= 17):
                misses.append((x, qv, ev, ref))
        assert misses == []

    def test_terms_and_head(self, monkeypatch):
        # N = ceil(10 - x) exactly (10 - x rounds to 9 at x = 1 - 2^-53,
        # which would leave T below 10), so that the ladder runs at
        # u = q^T with T = x + N >= 10, and terms_used is N plus the
        # corrections it added, at most seven.
        ladder, seen = qspecial._em_psi_ladder, []

        def recording_ladder(value, tol, u, p, r):
            out = ladder(value, tol, u, p, r)
            seen.append((u, out[2]))
            return out

        monkeypatch.setattr(qspecial, "_em_psi_ladder", recording_ladder)
        for qv in (0.62, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-11):
            q = QParam(qv)
            for x in (1e-300, 0.05, math.nextafter(1.0, 0.0), 1.0, 2.5, 9.5, math.nextafter(10.0, 0.0), 10.0,
                      30.0, 1e4, 1e300):
                n = max(0, math.ceil(10 - Fraction(x)))
                seen.clear()
                ev = psi_q(x, q)
                ((u, j),) = seen
                assert x + n >= 10.0 and u == math.exp(-(-q.ln_q * (x + n))), (x, qv)
                assert ev.terms_used == n + j and 0 <= j <= qspecial._EM_TERMS, (x, qv, ev)

    def test_eighth_correction_below_the_least_stop(self):
        # The eighth correction B_16/16! s^16 Li_{-15}(u), u = e^(-sT), as
        # psi_q forms it (u (s / (1-u))^16 A_15(u)), over 20,000 s from
        # 1e-12 to _QSERIES_S, at T = 10, where it is largest: it stays
        # below the least stop REL_TOL / 1024, so psi_q never adds it.
        s = np.geomspace(1e-12, qspecial._QSERIES_S, 20_000)
        u = np.exp(-10.0 * s)
        a15 = np.zeros_like(u)
        for c in _eulerian_explicit(15):
            a15 = a15 * u + c
        eighth = abs(BERNOULLI[7] / math.factorial(16)) * u * (s / -np.expm1(-10.0 * s)) ** 16 * a15
        worst = float(eighth.max())
        assert worst < REL_TOL * qspecial._EM_STOP
        # B_16 / (16 T^16), its limit as s -> 0, to 1e-6.
        assert worst == pytest.approx(abs(BERNOULLI[7]) / 16e16, rel=1e-6)

    def test_both_paths_agree_at_the_split(self, monkeypatch):
        # q_at takes the n-series and q_below, the next double up, the
        # q-Stirling form; at each, either path (forced by moving the split)
        # agrees with the n-form oracle and with the other.
        q_at, q_below = _split_q_pair()
        xs = [x for x, _ in self._points(42, 24)]
        for qv, path in ((q_at, "series"), (q_below, "stirling")):
            q = QParam(qv)
            default = [psi_q(x, q) for x in xs]
            monkeypatch.setattr(qspecial, "_QSERIES_S", 0.0)
            series = [psi_q(x, q) for x in xs]
            monkeypatch.setattr(qspecial, "_QSERIES_S", math.inf)
            stirling = [psi_q(x, q) for x in xs]
            monkeypatch.undo()
            assert default == (series if path == "series" else stirling), qv
            assert max(ev.terms_used for ev in stirling) <= 17
            for x, a, b in zip(xs, series, stirling):
                ref = float(mp_psi_q(x, qv, terms=1))
                assert _psi_agrees(a, ref, qv) and _psi_agrees(b, ref, qv), (x, qv, a, b, ref)
                assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate + 1e-14 * max(1.0, abs(ref))

    @pytest.mark.parametrize("one_minus_q", [1e-8, 1e-11])
    def test_recurrence_near_one(self, one_minus_q):
        # psi_q(x+1) - psi_q(x) = s q^x / (1-q^x) = s / expm1(s x), with x
        # on a grid of 2^-10 so that x + 1 is exact.  Each value is at
        # most 10 head terms -s / expm1(s(x+k)), of size at most 1/(x+k),
        # ln [T]_q, at most ln T + 1 here, h'(T)/2, at most 1/(2T), and
        # corrections far below those: S(x) bounds the sum of their sizes.
        # Each part is within 6 roundings u of its value (x + k and s t,
        # expm1 or exp, s = -ln q itself, and a division or log), and each
        # of the at most 13 additions adds at most u S(x): 24 u S(x) bounds
        # a value's rounding, and 3 u the step's, besides the two bounds.
        u = 2.0**-53

        def size(x):
            n = 10 - math.floor(x) if x < 10.0 else 0
            return sum(1.0 / (x + k) for k in range(n)) + math.log(x + n) + 1.0 + 0.5 / (x + n)

        q = QParam(1.0 - one_minus_q)
        s = -q.ln_q
        rng = np.random.default_rng(43)
        for x in np.exp(rng.uniform(math.log(0.05), math.log(30.0), size=200)):
            x = round(float(x) * 1024.0) / 1024.0
            low, high = psi_q(x, q), psi_q(x + 1.0, q)
            step = s / math.expm1(s * x)
            bound = low.error_estimate + high.error_estimate + 24.0 * u * (size(x) + size(x + 1.0)) + 3.0 * u * step
            assert abs((high.value - low.value) - step) <= bound, (x, one_minus_q, high.value - low.value, step)

    @pytest.mark.parametrize("qv", [0.62, 0.9, 1.0 - 1e-11])
    def test_reads_no_term_cap_and_overflows_at_the_pole(self, monkeypatch, qv):
        # With MAX_TERMS gone from qspecial, a read of it raises NameError:
        # the q-Stirling side makes none, the n-series side does.  s x
        # underflows to 0 at x = 5e-324, where the first head term's expm1
        # is 0: Overflow, as on the n-series side.
        q = QParam(qv)
        monkeypatch.delattr(qspecial, "MAX_TERMS")
        assert psi_q(2.5, q).terms_used <= 17
        with pytest.raises(Overflow, match=rf"^psi_q\(5e-324, {qv!r}\) exceeds the double range$"):
            psi_q(5e-324, q)
        with pytest.raises(NameError):
            psi_q(2.5, QParam(0.5))


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

    @pytest.mark.parametrize("m", [True, False, math.inf, -math.inf, math.nan])
    def test_rejects_a_bool_order(self, m):
        # True == 1, and psi_q_m(True, ...) once returned psi_q'; int()
        # raised OverflowError at an infinite order and ValueError at NaN.
        with pytest.raises(DomainError, match=f"m must be an integer >= 1, got {m!r}"):
            psi_q_m(m, 2.0, QParam(0.5))

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
            assert _head_length(x, q) > 0, (x, qv)
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

    @pytest.mark.parametrize("m, x, qv, oracle", [
        (170, 100.0, 0.9999, -8.8841193781856054e-36),
        (120, 1000.0, 0.99999, -5.9158044692867353e-164),
        (180, 100.0, 0.9999, -2.4080216997416601e-33),
    ])
    def test_large_m_head_matches_oracle(self, m, x, qv, oracle):
        # Each head term's (ln q / (1 - u))^(m+1) is below 1e-320 here while
        # u A_m(u) is near m!: taken apart, the power underflows to 0 and the
        # head is lost.  The oracles are the n-form in 40 digits (38,245,
        # 30,676 and 39,696 terms), frozen.  At m = 180, A_m's coefficients
        # leave the doubles, so a head term does, and the call raises
        # Overflow although the value is in range: the limit that stays.
        q = QParam(qv)
        assert _head_length(x, q) > 0
        if m > 171:
            with pytest.raises(Overflow, match=rf"psi_q_m\({m}, {x}, {qv}\) exceeds the double range"):
                psi_q_m(m, x, q)
            return
        ev = psi_q_m(m, x, q)
        assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle)

    def test_summands_rising_from_below_the_floor_match_oracle(self):
        # At m = 2100, x = 1000, q = 0.5 the first summand underflows and the
        # second is about 1e-305, while they peak near n = m / (s x) ~ 3 at
        # about 3e-236: r_n = (1+1/n)^2100 2^-1000 stays at least 1 until
        # then, so no stop fires before, and the bound from the stop holds.
        ev = psi_q_m(2100, 1000.0, QParam(0.5))
        oracle = float(mp_psi_q_m(2100, 1000, "0.5"))
        assert oracle == pytest.approx(-3.1400e-236, rel=1e-4)
        assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle)
        assert _head_length(1000.0, QParam(0.5)) == 0
        assert _mp_psi_q_m_tail(2100, 1000.0, 0.5, ev.terms_used) <= ev.error_estimate * (1.0 + 1e-12)

    @pytest.mark.parametrize("m, x, qv", [(1000, 316.0, 0.74), (800, 300.0, 0.78), (60, 5.0, 0.95)])
    def test_ratio_bound_above_one_at_n_8_matches_oracle(self, m, x, qv):
        # The ratio bound r_n = (1+1/n)^m q^y is still above 1 at n = 8
        # here.  In the first two cases the first two summands are below
        # 1e-300 and the value is about -2.1e65 and -5.4e-8: a stop at the
        # bound q^y alone would return 0.0.
        q = QParam(qv)
        y = x + _head_length(x, q)
        assert m * math.log1p(1 / 8) + y * q.ln_q > 0.0
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

    def test_cap_errors_share_one_message(self, monkeypatch):
        # psi_q at q = 0.5, on its n-series side, where K = 5 here and the
        # call takes 11 terms; psi_q_m at q = 0.9, where K = 15 and it takes 34.
        q, q_psi = QParam(0.9), QParam(0.5)
        assert -q_psi.ln_q >= qspecial._QSERIES_S
        calls = (
            (lambda: psi_q(2.5, q_psi), 3),  # in the head
            (lambda: psi_q(2.5, q_psi), 8),  # in the tail
            (lambda: psi_q_m(2, 2.5, q), 3),
            (lambda: psi_q_m(2, 2.5, q), 20),
        )
        for call, max_terms in calls:
            _cap(monkeypatch, max_terms)
            with pytest.raises(NonConvergence, match=rf"^no convergence within {max_terms} terms \(estimate "):
                call()


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


def _closure_tail(y_ln_q, ln_q, max_terms, m=0, scale=1.0):
    """sum_geometric_decay's stop rule over summands that each take one exp
    and one expm1, as the engine formed them before it carried the powers
    of q: the reference for the carried summands.  Returns ("stop" or
    "cap", sum, bound, terms, summands), the bound at the first omitted
    index, inf where r_n >= 1."""
    exp, expm1 = math.exp, math.expm1
    if m:
        a = y_ln_q / m

        def term(n):
            return (n * exp(n * a) * scale) ** m / -expm1(n * ln_q)
    else:

        def term(n):
            return exp(n * y_ln_q) / -expm1(n * ln_q)

    inv_gap = 1.0 / (1.0 - exp(y_ln_q))
    summands = [term(1)]
    total = 0.0
    for n in range(2, max_terms + 2):
        total += summands[-1]
        nxt = term(n)
        summands.append(nxt)
        estimate = nxt * inv_gap
        if estimate <= REL_TOL * total or estimate <= ABS_TOL:
            if not m:
                return "stop", total, estimate, n - 1, summands
            ln_ratio = m * math.log1p(1.0 / n) + y_ln_q
            if ln_ratio < 0.0:
                estimate = nxt / -expm1(ln_ratio)
                if estimate <= REL_TOL * total or estimate <= ABS_TOL:
                    return "stop", total, estimate, n - 1, summands
    if m:
        ln_ratio = m * math.log1p(1.0 / n) + y_ln_q
        estimate = nxt / -expm1(ln_ratio) if ln_ratio < 0.0 else math.inf
    return "cap", total, estimate, max_terms, summands


def _within(got, ref, bound):
    """|got - ref| <= bound, with both infinite alike."""
    if math.isinf(ref):
        return got == ref
    return abs(got - ref) <= bound


def _outcome(call):
    """A call's result, or every field of the error it raised."""
    try:
        ev = call()
    except NonConvergence as exc:
        return ("NonConvergence", exc.partial_value, exc.error_estimate, exc.terms_used, str(exc))
    except (Overflow, DomainError) as exc:
        return (type(exc).__name__, str(exc))
    assert type(ev) is Evaluation and type(ev.terms_used) is int
    return tuple(ev)


class TestTailEngineReference:
    """The series engine, each power of q carried from the one before, sums
    psi_q's and psi_q_m's tails as their per-term closures do: the same
    stop or cap at the same index, and a sum and bound within the two
    forms' rounding bounds of each other (tests/rounding.py); and the
    bound holds: the tail left, in 40 digits, is at most it."""

    ONE_MINUS_Q = np.geomspace(1e-6, 0.999, 9)
    # psi_q sums its tail through the engine on its n-series side alone.
    N_SERIES_Q = (1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    X = np.geomspace(0.01, 1000.0, 9)
    ORDERS = (1, 2, 3, 7, 30)
    # Large orders: summands rising from below the double range, summands
    # near the range's top, and a value beyond it.
    EDGES = ((300, 30.0, 0.9), (300, 30.0, 1e-10), (2100, 1000.0, 0.5), (250, 30.0, 0.5), (7000, 1.0, 0.5))

    @pytest.mark.parametrize("max_terms", [None, 1, 3, 15, 40])
    def test_psi_q_and_psi_q_m_match_the_closures(self, monkeypatch, max_terms):
        _cap(monkeypatch, max_terms)
        calls = []
        for om, qv in zip(self.ONE_MINUS_Q, self.N_SERIES_Q):
            q, q_psi = QParam(1.0 - float(om)), QParam(qv)
            assert -q_psi.ln_q >= qspecial._QSERIES_S
            for x in self.X:
                x = float(x)
                calls.append(lambda x=x, q=q_psi: psi_q(x, q))
                calls += [lambda m=m, x=x, q=q: psi_q_m(m, x, q) for m in self.ORDERS]
        calls += [lambda m=m, x=x, q=QParam(qv): psi_q_m(m, x, q) for m, x, qv in self.EDGES]
        assert len(calls) == 81 * (1 + len(self.ORDERS)) + len(self.EDGES)

        tails = []

        def recording_tail(*args):
            try:
                ev = sum_geometric_decay(*args)
            except NonConvergence as exc:
                tails.append((args, ("cap", exc.partial_value, exc.error_estimate, exc.terms_used)))
                raise
            except OverflowError:
                tails.append((args, ("overflow",)))
                raise
            tails.append((args, ("stop", *ev)))
            return ev

        monkeypatch.setattr(qspecial, "sum_geometric_decay", recording_tail)
        for call in calls:
            _outcome(call)
        mismatches = []
        for args, got in tails:
            try:
                ref = _closure_tail(*args)
            except OverflowError:
                ref = ("overflow",)
            if got[0] == "overflow" or ref[0] == "overflow":
                if got[:1] != ref[:1]:
                    mismatches.append((args, got, ref[:4]))
                continue
            kind, total, estimate, terms, summands = ref
            y_ln_q, m = args[0], args[3]
            charges_ref = [rounding.tail_summand_closure(n, y_ln_q, m) for n in range(1, len(summands) + 1)]
            charges_got = [rounding.tail_summand_carried(n, y_ln_q, m) for n in range(1, len(summands) + 1)]
            # The bound is the first omitted summand times one factor both
            # forms share, rounded once by each.
            estimate_bound = rounding.term_bound(estimate, charges_ref[-1] + rounding.U, charges_got[-1] + rounding.U)
            if not (
                got[0] == kind
                and got[3] == terms
                and _within(got[1], total, rounding.sum_bound(summands[:-1], charges_ref[:-1], charges_got[:-1]))
                and _within(got[2], estimate, estimate_bound)
            ):
                mismatches.append((args, got, ref[:4]))
        assert mismatches == []
        if max_terms is None:
            assert len(tails) > 350
            assert sum(got[0] == "stop" and args[3] == 0 for args, got in tails) == 81
        else:
            assert sum(got[0] == "cap" for _, got in tails) > 50
            assert sum(got[0] == "cap" and got[2] == math.inf for _, got in tails) > 0

    @pytest.mark.parametrize("max_terms", [None, 3, 15, 40])
    def test_psi_q_m_bound_covers_the_tail(self, monkeypatch, max_terms):
        # From 1 - q = 1e-4 up, where the 40-digit tail takes at most a few
        # thousand terms.  A cap in the tail reports the engine's bound from
        # the first omitted index, or inf; a cap in the head, the k-form's
        # bound, which is not the engine's, and is left out.
        cap = _cap(monkeypatch, max_terms)
        points = [
            (m, float(x), QParam(1.0 - float(om)))
            for om in self.ONE_MINUS_Q
            if om >= 1e-4
            for x in self.X
            for m in self.ORDERS
        ]
        points += [(m, x, QParam(qv)) for m, x, qv in self.EDGES]
        checked = capped = 0
        for m, x, q in points:
            k_end = _head_length(x, q)
            if k_end >= cap:
                continue
            try:
                ev = psi_q_m(m, x, q)
            except NonConvergence as exc:
                ev = Evaluation(exc.partial_value, exc.error_estimate, exc.terms_used)
                capped += 1
            except Overflow:
                continue
            remainder = _mp_psi_q_m_tail(m, x + k_end, q.q, ev.terms_used - k_end)
            assert remainder <= ev.error_estimate * (1.0 + 1e-12), (m, x, q.q, remainder, ev)
            checked += 1
        assert checked > {None: 270, 3: 95, 15: 130, 40: 165}[max_terms], checked
        assert (capped > 50) is (max_terms is not None), capped


def _eulerian_explicit(m: int) -> tuple:
    """A_m's coefficients by the closed form A(m, k) = sum_{i<=k} (-1)^i
    C(m+1, i) (k+1-i)^m (DLMF 26.14.5), independent of qspecial's table."""
    if m == 0:
        return (1.0,)
    return tuple(
        float(sum((-1) ** i * math.comb(m + 1, i) * (k + 1 - i) ** m for i in range(k + 1))) for k in range(m)
    )


def _gamma_explicit(m: int) -> tuple:
    """The gamma vector of A_m, m >= 1, solved from _eulerian_explicit(m):
    the coefficient of u^i in sum_k g_k u^k (1+u)^(m-1-2k) is
    sum_{k<=i} g_k C(m-1-2k, i-k), and C(m-1-2i, 0) = 1, so each g_i
    follows from the ones below it, in integers."""
    a = [int(c) for c in _eulerian_explicit(m)]
    g = []
    for i in range((m + 1) // 2):
        g.append(a[i] - sum(gk * math.comb(m - 1 - 2 * k, i - k) for k, gk in enumerate(g)))
    return tuple(g)


# The q-Stirling corrections' factors and gamma vectors (G_0 = 1 for
# A_0 = 1), as the loop form below reads them: all nine, of which the loop
# adds at most eight, as ln_gamma_q did before its ladder was cut to seven.
_LOOP_EM_COEF = tuple(
    (b / math.factorial(2 * j), tuple(map(float, _gamma_explicit(2 * j - 2))) if j > 1 else (1.0,))
    for j, b in enumerate(BERNOULLI, 1)
)

# psi_q's: B_2j/(2j)! and the gamma vector of A_(2j-1), j = 1..8.
_LOOP_PSI_EM_COEF = tuple(
    (b / math.factorial(2 * j), tuple(map(float, _gamma_explicit(2 * j - 1))))
    for j, b in enumerate(BERNOULLI[:qspecial._EM_TERMS + 1], 1)
)


def _reference_li2_tail_difference(tx, ty, s, zx, zy, dz, ln_s):
    """qspecial._li2_tail_difference with its two stop tests by abs, kept
    verbatim as the reference for the comparisons that replace them."""
    wy = s * ty
    if ln_s is not None and s * tx <= 1.0:
        d = tx - ty
        tails = tx * qspecial._li2_w(s * tx) - ty * qspecial._li2_w(wy)
        return d * (math.log(tx) - 1.0 - 0.25 * s * (tx + ty)) + ty * math.log1p(d / ty) + tails
    both_z = ln_s is None or wy > qspecial._LN2
    za, zb = (zy, zx) if both_z else (zx, 0.0)
    pa, pb, va, vb = za, zb, za * za, zb * zb
    tol_a, tol_b = qspecial._EPS * za, qspecial._EPS * zb
    acc_a = acc_b = 0.0
    for c in qspecial._LI2_Z:
        pa *= va
        term = c * pa
        if abs(term) <= tol_a:
            break
        acc_a += term
        pb *= vb
        term = c * pb
        if abs(term) <= tol_b:
            pb = 0.0
        else:
            acc_b += term
    if both_z:
        diff = (dz * (1.0 - 0.25 * (zx + zy)) + (acc_b - acc_a)) / s
        return diff if ln_s is None else diff - (tx - ty) * ln_s
    ret_x = (zx - 0.25 * zx * zx + acc_a - qspecial._ZETA2) / s - tx * ln_s
    return ret_x - ty * (math.log(ty) - 1.0 - 0.25 * wy + qspecial._li2_w(wy))


def _reference_ln_gamma_q(x, q, y=1.0):
    """ln_gamma_q with its corrections in a loop (_loop_ladder, in gamma
    form, over all nine), and its min, max and abs calls, kept verbatim as
    the reference for the straight-line Horner code and the comparisons;
    from s = _QSERIES_S on, its q-series as a loop over k with the term,
    its stop test and its bound written out in the closed form of the
    docstring, u^k (e^(ka) - 1) / (k (1-q^k)), |t_k| / (1-u) and u |t_k| /
    (1-u), the powers carried in the same order."""
    require_positive(x)
    require_positive(y, "y")
    swapped = y > x
    if swapped:
        x, y = y, x
    expm1 = math.expm1
    log = math.log
    ln_q = q.ln_q
    s = -ln_q
    qseries = s >= qspecial._QSERIES_S
    if qseries:
        n = max(0, math.ceil(math.sqrt(-math.log(REL_TOL * qspecial._EM_STOP) / s) - y))
    else:
        n = max(0, math.ceil(10 - Fraction(y)))
    if s * 10.0 <= qspecial._LN2:
        ln_s = log(s)
        value = (y - x) * log((1.0 - q.q) / s)
    else:
        ln_s = None
        value = (y - x) * math.log1p(-q.q)

    if n:
        if s * y < qspecial._TINY_W:
            value += log(y / x) if s * x < qspecial._TINY_W else log(y) - (log(-expm1(-s * x)) - log(s))
        else:
            value += log(expm1(ln_q * y) / expm1(ln_q * x))
    prod = 1.0
    for k in range(1, n):
        prod *= expm1(ln_q * (y + k)) / expm1(ln_q * (x + k))
    value += log(prod)

    if qseries:
        tol = REL_TOL * qspecial._EM_STOP * max(1.0, abs(value))
        u = math.exp(y * ln_q) * math.exp(n * ln_q)
        ea = expm1((x - y) * ln_q)
        powers = {"u^k": u, "e^(ka) - 1": ea, "1 - q^k": 1.0 - q.q, "q^k (1-q)": (1.0 - q.q) * q.q}
        total = 0.0
        for k in range(1, MAX_TERMS):
            term = powers["u^k"] * powers["e^(ka) - 1"] / (k * powers["1 - q^k"])
            total += term
            if abs(term) / (1.0 - u) <= tol:
                break
            powers["u^k"] *= u
            powers["e^(ka) - 1"] = powers["e^(ka) - 1"] * (1.0 + ea) + ea
            powers["1 - q^k"] += powers["q^k (1-q)"]
            powers["q^k (1-q)"] *= q.q
        value += total
        if swapped:
            value = -value
        return new_record(Evaluation, (value, u * (abs(term) / (1.0 - u)), n + k))

    tx, ty = x + n, y + n
    ux, uy = math.exp(-s * tx), math.exp(-s * ty)
    dx, dy = -expm1(-s * tx), -expm1(-s * ty)
    zx, zy = -log(dx), -log(dy)
    dz = -math.log1p(-uy * expm1(-s * (tx - ty)) / dy)
    value += 0.5 * dz + _reference_li2_tail_difference(tx, ty, s, zx, zy, dz, ln_s)
    ex = n - (tx - x) if x >= n else x - (tx - n)
    ey = n - (ty - y) if y >= n else y - (ty - n)
    ln_s0 = 0.0 if ln_s is None else ln_s
    value -= ex * (zx + ln_s0) - ey * (zy + ln_s0)

    tol = REL_TOL * qspecial._EM_STOP * max(1.0, abs(value))
    rx, ry = s / dx, s / dy
    px, py = ux * rx, uy * ry
    rx *= rx
    ry *= ry
    value, bound, j = _loop_ladder(value, tol, ux, uy, px, py, rx, ry, _LOOP_EM_COEF)
    if swapped:
        value = -value
    return new_record(Evaluation, (value, bound, n + j))


def _loop_ladder(value, tol, ux, uy, px, py, rx, ry, coefs=_LOOP_EM_COEF[:qspecial._EM_TERMS + 1]):
    """ln_gamma_q's correction loop in gamma form over ``coefs`` (its first
    _EM_TERMS + 1 corrections by default), the reference for the unrolled
    em_ladder: A_2j(u) = (1+u)^(2j-1) G_2j(t), t = u/(1+u)^2, each G_2j by a
    loop over its coefficients from the top, the (1+u) powers carried in
    px and rx from the first step on."""
    tx = ty = 0.0
    for j, (coef, gamma) in enumerate(coefs):
        gx = gy = 0.0
        for c in reversed(gamma):
            gx = gx * tx + c
            gy = gy * ty + c
        cx, cy = coef * px * gx, coef * py * gy
        if coef > 0.0:
            bound = cx if cx > cy else cy
        else:
            bound = -cx if cx < cy else -cy
        if bound <= tol or j == len(coefs) - 1:
            break
        value += cx - cy
        if j == 0:
            ax, ay = 1.0 + ux, 1.0 + uy
            tx, ty = ux / (ax * ax), uy / (ay * ay)
            px *= rx * ax
            py *= ry * ay
            rx *= ax * ax
            ry *= ay * ay
        else:
            px *= rx
            py *= ry
    return value, bound, j


def _loop_psi_ladder(value, tol, ux, px, rx):
    """psi_q's correction loop in gamma form, the reference for the
    unrolled em_psi_ladder: step j subtracts c ux r^(2j+2) A_(2j+1)(ux),
    A_(2j+1)(u) = (1+u)^(2j) G(t), t = u/(1+u)^2, each G by a loop over its
    coefficients from the top, from px = ux r^2 and rx = r^2, the (1+u)^2
    powers carried in px and rx from the first step on."""
    tx = 0.0
    for j, (coef, gamma) in enumerate(_LOOP_PSI_EM_COEF):
        gx = 0.0
        for c in reversed(gamma):
            gx = gx * tx + c
        cx = coef * px * gx
        bound = cx if coef > 0.0 else -cx
        if bound <= tol or j == len(_LOOP_PSI_EM_COEF) - 1:
            break
        value -= cx
        if j == 0:
            ax = 1.0 + ux
            tx = ux / (ax * ax)
            px *= rx * (ax * ax)
            rx *= ax * ax
        else:
            px *= rx
    return value, bound, j


def _eulerian_loop_ladder(value, tol, ux, uy, px, py, rx, ry):
    """The correction loop with each A_2j by a loop over its Eulerian
    coefficients, as ln_gamma_q took it before the gamma form, and the size
    |value| + sum (|cx| + |cy|) over the steps taken, which bounds every
    partial sum."""
    size = abs(value)
    for j, b in enumerate(BERNOULLI[:qspecial._EM_TERMS + 1]):
        coef = b / math.factorial(2 * j + 2)
        ax = ay = 0.0
        for c in _eulerian_explicit(2 * j):
            ax = ax * ux + c
            ay = ay * uy + c
        cx, cy = coef * px * ax, coef * py * ay
        size += abs(cx) + abs(cy)
        bound = max(abs(cx), abs(cy))
        if bound <= tol or j == qspecial._EM_TERMS:
            break
        value += cx - cy
        px *= rx
        py *= ry
    return value, bound, j, size


def _loop_kernel(m, u):
    """u A_m(u) by a loop over A_m's coefficients, as psi_q_m's head took it."""
    a = 0.0
    for c in _eulerian_explicit(m):
        a = a * u + c
    return u * a


def _reference_psi_q(x, q):
    """psi_q on its n-series side (s = -ln q >= _QSERIES_S) with K from
    _head_length, kept verbatim as the reference for the lines written out
    in its place, under the same cap."""
    require_positive(x)
    expm1 = math.expm1
    ln_q = q.ln_q
    s = -ln_q
    max_terms = qspecial.MAX_TERMS
    k_end = _head_length(x, q)
    limit = min(k_end, max_terms)
    y_ln_q = (x + k_end) * ln_q
    offset = -math.log1p(-q.q)

    value = term = 0.0
    try:
        for k in range(limit + 1 if limit == max_terms else limit):
            value += term
            term = ln_q / expm1(s * (x + k))
        if limit < max_terms:
            value += term
            if math.isfinite(value):
                tail = qspecial.sum_geometric_decay(y_ln_q, ln_q, max_terms - limit)
                value = offset + (value + ln_q * tail.value)
    except NonConvergence as exc:
        partial = offset + (value + ln_q * exc.partial_value)
        raise cap_error(max_terms, partial, s * exc.error_estimate, max_terms) from None
    except (ZeroDivisionError, OverflowError):
        value = math.inf
    if not math.isfinite(value):
        raise Overflow(f"psi_q{(x, q.q)!r} exceeds the double range")
    if limit == max_terms:
        raise cap_error(max_terms, offset + value, abs(term) / (1.0 - q.q), limit)
    return new_record(Evaluation, (value, s * tail.error_estimate, limit + tail.terms_used))


class TestStraightLineReference:
    """ln_gamma_q's corrections in straight-line Horner code, its
    comparisons in place of min, max and abs, and psi_q's written-out K
    give what the loop and the calls gave: the same Evaluation, or (psi_q
    under a cap) the same NonConvergence partial value, estimate, terms and
    message, bit for bit."""

    # 1 - q log-uniform over [1e-9, 0.999]: s <= ln 2 / 10 below about
    # 1 - q = 0.067 and above it, so both branches of _li2_tail_difference
    # (and both of its series) run.
    ONE_MINUS_Q = np.geomspace(1e-9, 0.999, 13)
    # y < 1 and y >= 1, s y < 1e-300 (with s x above and below it), y just
    # below 1, where 10 - y rounds to 9 but N is 10, and y on either side of
    # 10, where N falls from 1 to 0.
    X = (1e-305, 1e-290, 0.3, 0.999, 1.0, 1.7, 4.5, 12.0, 80.0, 1e4)
    Y = (1e-310, 1e-303, 0.01, 0.5, math.nextafter(1.0, 0.0), 1.0, 1.2, 9.5, math.nextafter(10.0, 0.0), 10.0, 30.0)
    CAPS = (1, 5, 9, 10, 12, 15)
    # Powers of q for the ladder and the head kernels: near u = 1 every
    # coefficient and step order shows in the value.
    U = (0.0, 1e-300, 1e-10, 0.1, 0.37, 0.5, 0.9, 0.999, 0.9999999, 1.0)

    def test_eulerian_table_is_the_closed_form(self):
        assert qspecial._EULERIAN == tuple(_eulerian_explicit(m) for m in range(17))

    def test_gamma_table_is_the_closed_form(self):
        # By order: ln Gamma_q's corrections read the even ones, psi_q's the odd.
        assert len(qspecial._EM_GAMMA) == 2 * qspecial._EM_TERMS + 2
        assert qspecial._EM_GAMMA[::2] == tuple(gamma for _, gamma in _LOOP_EM_COEF[:qspecial._EM_TERMS + 1])
        assert qspecial._EM_GAMMA[1::2] == tuple(gamma for _, gamma in _LOOP_PSI_EM_COEF)

    @pytest.mark.parametrize("m", range(1, 17))
    def test_gamma_vector_expands_to_the_eulerian_polynomial(self, m):
        # sum_k g_k u^k (1+u)^(m-1-2k) = A_m(u) coefficient by coefficient,
        # in integers; every g_k >= 0, and below 2^53, so that float(g_k)
        # is exact.
        gamma = qspecial._gamma_vector(m)
        assert tuple(gamma) == _gamma_explicit(m)
        expanded = [0] * m
        for k, g in enumerate(gamma):
            for i in range(m - 2 * k):
                expanded[k + i] += g * math.comb(m - 1 - 2 * k, i)
        assert expanded == qspecial._eulerian(m) == [int(c) for c in _eulerian_explicit(m)]
        assert all(0 <= g < 2**53 for g in gamma), gamma

    def test_ladder_matches_the_loop(self):
        # Every step of the ladder runs at tol = -1.
        rng = np.random.default_rng(26)
        mismatches = []
        for ux, uy in zip(self.U, reversed(self.U)):
            for _ in range(10):
                for tol in (-1.0, 0.0, 1e-17, 1e-14, 1e-6):
                    value, px, py, rx, ry = (float(v) for v in np.exp(rng.uniform(-30.0, 5.0, 5)))
                    args = (value, tol, ux, uy, px, py, rx, ry)
                    if qspecial._em_ladder(*args) != _loop_ladder(*args):
                        mismatches.append(args)
        assert mismatches == []
        assert qspecial._em_ladder(1.0, -1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0)[2] == qspecial._EM_TERMS == 7

    def test_psi_ladder_matches_the_loop(self):
        # psi_q's ladder, from the same generator: every step runs at tol = -1.
        rng = np.random.default_rng(40)
        mismatches = []
        for ux in self.U:
            for _ in range(10):
                for tol in (-1.0, 0.0, 1e-17, 1e-14, 1e-6):
                    value, px, rx = (float(v) for v in np.exp(rng.uniform(-30.0, 5.0, 3)))
                    args = (value, tol, ux, px, rx)
                    if qspecial._em_psi_ladder(*args) != _loop_psi_ladder(*args):
                        mismatches.append(args)
        assert mismatches == []
        assert qspecial._em_psi_ladder(1.0, -1.0, 0.5, 1.0, 1.0)[2] == qspecial._EM_TERMS == 7

    def test_ladder_matches_the_eulerian_form(self):
        # The gamma form rounds differently.  With u in [0, 1] every factor
        # is positive, so each correction is within about (5j + 2) eps of
        # its exact value in the Eulerian loop (a Horner of 2j steps, then
        # j + 2 products) and about 12j eps in the gamma form (t, a^2 and
        # the carried a powers add about 4 eps per power of t or r^2 a^2):
        # at most 84 eps at j = 7.  The additions round each partial sum,
        # which is below the size |value| + sum (|cx| + |cy|), once per
        # step.  So 256 eps of the size bounds the difference of the two
        # values, and 256 eps of the bound that of the two bounds.
        rng = np.random.default_rng(26)
        worst = 0.0
        for ux, uy in zip(self.U, reversed(self.U)):
            for _ in range(10):
                for tol in (-1.0, 0.0, 1e-17, 1e-14, 1e-6):
                    value, px, py, rx, ry = (float(v) for v in np.exp(rng.uniform(-30.0, 5.0, 5)))
                    args = (value, tol, ux, uy, px, py, rx, ry)
                    got_value, got_bound, got_j = qspecial._em_ladder(*args)
                    ref_value, ref_bound, ref_j, size = _eulerian_loop_ladder(*args)
                    assert got_j == ref_j, args
                    assert abs(got_value - ref_value) <= 256 * qspecial._EPS * size, args
                    assert abs(got_bound - ref_bound) <= 256 * qspecial._EPS * ref_bound, args
                    worst = max(worst, abs(got_value - ref_value) / size, abs(got_bound - ref_bound) / ref_bound)
        print(f"gamma vs Eulerian form: worst difference {worst / qspecial._EPS:.1f} eps")

    def test_every_head_kernel_matches_the_loop(self):
        # A kernel returns the whole head term u A_m(u) r^(m+1): up to m = 16
        # as the loop's u A_m(u) times r^(m+1), above as
        # ((u A_m(u))^(1/(m+1)) r)^(m+1).
        r = (-1e-6, -0.3, -1.0, -7.5, -1e4)
        assert sorted(qspecial._LI_HEADS) == list(range(1, 17))
        for m in range(1, 21):
            if m in qspecial._LI_HEADS:
                kernel = qspecial._LI_HEADS[m]
            else:
                kernel = qspecial._loop_head(m)
            for v in self.U:
                for w in r:
                    if m <= 16:
                        expected = _loop_kernel(m, v) * w ** (m + 1)
                    else:
                        expected = (_loop_kernel(m, v) ** (1.0 / (m + 1)) * w) ** (m + 1)
                    assert kernel(v, w) == expected, (m, v, w)

    def test_ln_gamma_q_matches_the_loop_form(self):
        mismatches = []
        outcomes = {False: [], True: []}
        # The grid's last q (1 - q = 0.999) and the four after it take the
        # q-series; the rest take the q-Stirling tails.
        for qv in (*(1.0 - self.ONE_MINUS_Q), 0.6, 0.3, 1e-20, 1e-200):
            q = QParam(float(qv))
            qseries = -q.ln_q >= qspecial._QSERIES_S
            for x in self.X:
                for y in self.Y:
                    # Both argument orders: y > x takes the swapped path.
                    for a, b in ((x, y), (y, x)):
                        got = _outcome(lambda: ln_gamma_q(a, q, y=b))
                        ref = _outcome(lambda: _reference_ln_gamma_q(a, q, y=b))
                        outcomes[qseries].append(((a, b), got))
                        if got != ref:
                            mismatches.append(((a, b, q.q), got, ref))
        assert mismatches == []
        assert len(outcomes[True]) == 5 * 2 * len(self.X) * len(self.Y)
        # Seven corrections added and the eighth as the bound: the most any
        # call reaches, as the eighth is below 5e-17 at every q and T >= 10,
        # under the least stop, REL_TOL / 1024.
        stirling = outcomes[False]
        assert max(terms - max(0, math.ceil(10 - Fraction(min(a, b)))) for (a, b), (_, _, terms) in stirling) == 7
        assert max(terms for _, (_, _, terms) in outcomes[True]) <= 17

    @pytest.mark.parametrize("max_terms", [None, *CAPS])
    def test_psi_q_matches_the_calls(self, monkeypatch, max_terms):
        # On psi_q's n-series side: the grid's last q (1 - q = 0.999) and
        # the four after it; q^(x+K) is below the double range at the last two.
        _cap(monkeypatch, max_terms)
        mismatches = []
        n_series_q = [q for q in map(QParam, (*(1.0 - self.ONE_MINUS_Q), 0.6, 0.3, 1e-20, 1e-200))
                      if -q.ln_q >= qspecial._QSERIES_S]
        assert len(n_series_q) == 5
        for q in n_series_q:
            for x in (*self.X, *self.Y[:3], 700.0):
                got, ref = _outcome(lambda: psi_q(x, q)), _outcome(lambda: _reference_psi_q(x, q))
                if got != ref:
                    mismatches.append(((x, q.q), got, ref))
        assert mismatches == []



def _reference_psi_q_m(m, x, q, parts=None):
    """psi_q_m with its head's A_m in a loop over its coefficients, each
    head term from its own exp and expm1, its range test at every call and
    K from _head_length, kept as the reference for the compiled head
    kernels, the carried powers of q and the test skipped where it cannot
    fire, under the same cap.  ``parts``, a dict, receives the head terms
    and the signed tail value or partial value it adds."""
    if m < 1 or m != int(m):
        raise DomainError(f"m must be an integer >= 1, got {m!r}")
    require_positive(x)
    exp = math.exp
    expm1 = math.expm1
    ln_q = q.ln_q
    s = -ln_q
    n = max(1, round(min(m / max(s * x, qspecial._SX_FLOOR), 1e300)))
    if (m + 1) * math.log(s) + m * math.log(n) - n * s * x > MAX_EXP:
        raise Overflow(f"psi_q_m{(m, x, q.q)!r} exceeds the double range")
    parts = {} if parts is None else parts
    parts["head"], parts["tail"] = [], None
    power = m + 1
    sign = 1.0 if m % 2 else -1.0
    max_terms = qspecial.MAX_TERMS
    k_end = _head_length(x, q)
    limit = min(k_end, max_terms)
    eulerian = (
        (qspecial._EULERIAN[int(m)] if m < len(qspecial._EULERIAN) else qspecial._eulerian(int(m))) if k_end else ()
    )
    y_ln_q = (x + k_end) * ln_q
    scale = s * s ** (1.0 / m)

    value = term = 0.0
    try:
        for k in range(limit + 1 if limit == max_terms else limit):
            value += term
            t = (x + k) * ln_q
            u = exp(t)
            a = 0.0
            for c in eulerian:
                a = a * u + c
            term = u * a * (ln_q / -expm1(t)) ** power
            parts["head"].append(term)
        if limit < max_terms:
            value += term
            if math.isfinite(value):
                tail = qspecial.sum_geometric_decay(y_ln_q, ln_q, max_terms - limit, m, scale)
                parts["tail"] = sign * tail.value
                value += sign * tail.value
    except NonConvergence as exc:
        parts["tail"] = sign * exc.partial_value
        raise cap_error(max_terms, value + sign * exc.partial_value, exc.error_estimate, max_terms) from None
    except (ZeroDivisionError, OverflowError):
        value = math.inf
    if not math.isfinite(value):
        raise Overflow(f"psi_q_m{(m, x, q.q)!r} exceeds the double range")
    if limit == max_terms:
        raise cap_error(max_terms, value, abs(term) / (1.0 - q.q), limit)
    return new_record(Evaluation, (value, tail.error_estimate, limit + tail.terms_used))


def _kind(outcome):
    """The kind of an _outcome: the error's name, or "Evaluation"."""
    return outcome[0] if isinstance(outcome[0], str) else "Evaluation"


def _matches_the_loop_head(got, ref, parts, m, x, q):
    """Whether psi_q_m's outcome ``got`` is the loop-head reference's
    ``ref``, from the same tail, to within both head forms' rounding bounds
    (tests/rounding.py): the same kind, terms, message and tail bound; the
    value or partial value within the bound on its head terms and
    additions, and a head cap's estimate |next head term| / (1 - q) within
    that term's."""
    if _kind(ref) not in ("Evaluation", "NonConvergence") or _kind(got) != _kind(ref):
        return got == ref
    if _kind(ref) == "Evaluation":
        (value, estimate, terms), message = ref, ""
        (got_value, got_estimate, got_terms), got_message = got, ""
    else:
        _, value, estimate, terms, message = ref
        _, got_value, got_estimate, got_terms, got_message = got
    head = parts["head"]
    charges_ref = [rounding.head_term_loop(k, x, q.ln_q, m) for k in range(len(head))]
    charges_got = [rounding.head_term_carried(k, x, q.ln_q, m) for k in range(len(head))]
    if parts["tail"] is None:
        # Capped in the head: the last term computed is the one cut, and
        # its estimate is |term| / (1 - q), one more rounding in each form.
        value_bound = rounding.sum_bound(head[:-1], charges_ref[:-1], charges_got[:-1])
        estimate_bound = rounding.term_bound(estimate, charges_ref[-1] + rounding.U, charges_got[-1] + rounding.U)
        estimate_ok = _within(got_estimate, estimate, estimate_bound)
    else:
        # The tail's sum, the same double in both, is the last term added.
        value_bound = rounding.sum_bound([*head, parts["tail"]], [*charges_ref, 0.0], [*charges_got, 0.0])
        estimate_ok = got_estimate == estimate
    return (
        got_terms == terms
        and got_message.split(" (estimate")[0] == message.split(" (estimate")[0]
        and estimate_ok
        and _within(got_value, value, value_bound)
    )


class TestHeadKernelReference:
    """psi_q_m's compiled head kernels, written-out K and carried powers of
    q, and its range test skipped where e x >= m, give what the loop head,
    each term from its own exp and expm1, and the full test gave: the same
    Overflow message, or the same Evaluation or NonConvergence terms,
    message and tail bound, with values within the two head forms'
    rounding bounds of each other."""

    # Table orders, an integer-valued float, the first orders built per
    # call, and a large one.
    ORDERS = (1, 2, 2.0, 3, 7, 16, 17, 30, 300)
    X = np.geomspace(1e-3, 1e3, 7)
    ONE_MINUS_Q = np.geomspace(1e-9, 0.999, 7)

    @pytest.mark.parametrize("max_terms", [None, 1, 3, 17, 40])
    def test_psi_q_m_matches_the_loop_head(self, monkeypatch, max_terms):
        _cap(monkeypatch, max_terms)
        points = [
            (m, float(x), QParam(1.0 - float(om)))
            for om in self.ONE_MINUS_Q
            for x in self.X
            for m in self.ORDERS
            # Uncapped, a call takes about 350,000 terms at 1 - q = 1e-9, so
            # there the grid's corners stand for it, a table order and a
            # built one.
            if max_terms is not None or om > 1e-6 or (x in (self.X[0], self.X[-1]) and m in (2, 17))
        ]
        points += [(m, x, QParam(qv)) for m, x, qv in TestTailEngineReference.EDGES]
        mismatches = []
        outcomes = []
        for m, x, q in points:
            parts = {}
            got = _outcome(lambda: psi_q_m(m, x, q))
            ref = _outcome(lambda: _reference_psi_q_m(m, x, q, parts))
            outcomes.append(got)
            if not _matches_the_loop_head(got, ref, parts, m, x, q):
                mismatches.append(((m, x, q.q), got, ref))
        assert mismatches == []
        # Each kind of outcome is reached.
        assert sum(out[0] == "Overflow" for out in outcomes) > 10
        if max_terms is None:
            assert sum(len(out) == 3 for out in outcomes) > 200
        else:
            assert sum(out[0] == "NonConvergence" for out in outcomes) > 100

    def test_skipped_range_test_cannot_fire(self):
        # Wherever e x >= m, the range test's expression stays at most
        # ln s <= ln 745 + rounding, far below MAX_EXP: for m up to 7000,
        # s up to -ln of the least normal double, and x from m / e up.
        s_values = np.geomspace(1e-12, -math.log(sys.float_info.min), 400)
        orders = (1, 2, 3, 7, 16, 17, 30, 100, 300, 1000, 2100, 7000)
        worst = -math.inf
        checked = 0
        for m in orders:
            for factor in (1.0, 1.0 + 1e-12, 1.001, 1.1, 2.0, 10.0, 1e3, 1e8, 1e300):
                x = factor * m / math.e
                if not qspecial._E * x >= m:
                    continue  # psi_q_m runs the test here
                for s in s_values:
                    s = float(s)
                    n = max(1, round(min(m / max(s * x, qspecial._SX_FLOOR), 1e300)))
                    worst = max(worst, (m + 1) * math.log(s) + m * math.log(n) - n * s * x)
                    checked += 1
        assert checked > 40_000
        assert worst <= math.log(745.0) + 1e-9 < MAX_EXP

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

    @pytest.mark.parametrize("max_terms", [None, 1, 7, 60])
    def test_tail_starts_at_x_plus_head_length(self, monkeypatch, max_terms):
        # The library writes K out; the y ln q psi_q and psi_q_m hand the
        # engine is (x + _head_length(x, q)) ln q bit for bit, K from the
        # helper above, for x on both sides of sqrt(L/s) (K > 0 and K = 0)
        # and at it, and only when the head fits the cap.
        seen = []

        def recording_tail(y_ln_q, *args):
            seen.append(y_ln_q)
            return sum_geometric_decay(y_ln_q, *args)

        monkeypatch.setattr(qspecial, "sum_geometric_decay", recording_tail)
        cap = _cap(monkeypatch, max_terms)
        reached = 0
        for qv in (1e-12, 0.05, 0.3, 0.5, 0.6, 0.9, 0.999):
            q = QParam(qv)
            edge = math.sqrt(-math.log(REL_TOL) / -q.ln_q)
            xs = (0.01, 0.3 * edge, math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf), 3.0 * edge + 0.5)
            for x in xs:
                k_end = _head_length(x, q)
                for m in (0, 1, 2, 17):
                    seen.clear()
                    try:
                        psi_q(x, q) if m == 0 else psi_q_m(m, x, q)
                    except NonConvergence:
                        pass
                    # psi_q's q-Stirling side (s < _QSERIES_S) takes no tail.
                    n_series = m > 0 or -q.ln_q >= qspecial._QSERIES_S
                    expected = [(x + k_end) * q.ln_q] if k_end < cap and n_series else []
                    assert seen == expected, (x, qv, m, seen, expected)
                    reached += len(seen)
        assert reached > {None: 110, 1: 45, 7: 50, 60: 75}[max_terms], reached

    @pytest.mark.parametrize("x, qv", [(30.0, 1e-20), (2.0, 1e-300), (0.1, 1e-320)])
    def test_tail_ratio_below_the_double_range(self, x, qv):
        # q^(x+K) underflows to 0, where the engine's bound is the first
        # omitted summand over 1 - 0.
        # 400 digits resolve -ln(1-q) ~ q.
        for m in range(3):
            ev = psi_q(x, QParam(qv)) if m == 0 else psi_q_m(m, x, QParam(qv))
            with mp.workdps(400):
                oracle = float(mp_psi_q(x, qv, terms=1) if m == 0 else mp_psi_q_m(m, x, qv, terms=1))
            assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle), m

    @pytest.mark.parametrize("m", [0, 2])
    def test_max_terms_raises_with_bounded_partial_value(self, monkeypatch, m):
        # psi_q at q = 0.5, on its n-series side, psi_q_m at q = 0.9.
        q = QParam(0.5 if m == 0 else 0.9)
        k_end = _head_length(2.5, q)

        def evaluate():
            return psi_q(2.5, q) if m == 0 else psi_q_m(m, 2.5, q)

        full = evaluate()
        # Cut inside the head, where it ends (K = 5 and 15 here) and in the tail.
        assert k_end == (5 if m == 0 else 15)
        for max_terms in (3, k_end, full.terms_used - 1):
            _cap(monkeypatch, max_terms)
            with pytest.raises(NonConvergence) as info:
                evaluate()
            assert info.value.terms_used == max_terms
            assert abs(info.value.partial_value - full.value) <= info.value.error_estimate
        _cap(monkeypatch, full.terms_used)
        assert evaluate() == full

    @pytest.mark.parametrize("qv", [0.01, 0.05, 0.1, 0.2, 0.3, 0.5])
    def test_psi_q_m_error_estimate_bounds_the_tail(self, qv):
        # The n-form tail left after N = terms_used - K terms, in 40 digits,
        # at stops after few tail terms too.
        q = QParam(qv)
        for x in (0.05, 0.5, 1.0, 3.0, 10.0, 30.0):
            k_end = _head_length(x, q)
            for m in (1, 2, 3):
                ev = psi_q_m(m, x, q)
                remainder = _mp_psi_q_m_tail(m, x + k_end, qv, ev.terms_used - k_end)
                assert remainder <= ev.error_estimate * (1.0 + 1e-12), (x, m, ev.terms_used - k_end)

    def test_psi_q_m_cap_in_the_first_tail_terms_is_bounded(self, monkeypatch):
        # K = 5 here: caps of 6-10 terms stop after 1-5 tail terms.
        q = QParam(0.5)
        full = psi_q_m(2, 2.5, q)
        for max_terms in range(6, 11):
            _cap(monkeypatch, max_terms)
            with pytest.raises(NonConvergence) as info:
                psi_q_m(2, 2.5, q)
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


class _CountingMath:
    """The math module, counting each call of the functions in ``names``
    (exp and expm1 by default)."""

    def __init__(self, names=("exp", "expm1")):
        self.names = names
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(math, name)
        if name not in self.names:
            return attr

        def counted(*args):
            self.calls += 1
            return attr(*args)

        return counted


class TestLibmCallsPerCall:
    """The n-series tails of psi_q and psi_q_m and psi_q_m's head take each
    power of q from the one before, so their exp and expm1 calls do not
    grow with the terms they sum: the same at 2 terms (x = 30, q = 0.5) as
    at more than 5 (psi_q at x = 0.05, q = 0.6, the top of its n-series
    side) or 40 (psi_q_m at x = 0.05, q = 0.95).  psi_q's q-Stirling side
    takes one expm1 per head term, and one exp, one expm1 and one log for
    its tail and corrections, however many it adds."""

    def test_exp_and_expm1_calls_do_not_grow_with_terms(self, monkeypatch):
        import qgamma.qcore as qcore

        counting = _CountingMath()
        monkeypatch.setattr(qcore, "math", counting)
        monkeypatch.setattr(qspecial, "math", counting)
        tail_calls = []

        def counted_tail(*args):
            before = counting.calls
            ev = sum_geometric_decay(*args)
            tail_calls.append((counting.calls - before, ev.terms_used))
            return ev

        monkeypatch.setattr(qspecial, "sum_geometric_decay", counted_tail)
        found = []
        for x, q_psi, q in ((0.05, QParam(0.6), QParam(0.95)), (30.0, QParam(0.5), QParam(0.5))):
            assert -q_psi.ln_q >= qspecial._QSERIES_S
            tail_calls.clear()
            psi_q(x, q_psi)
            counting.calls = 0
            ev = psi_q_m(2, x, q)
            found.append((*tail_calls[0], counting.calls, ev.terms_used, _head_length(x, q)))
        (many_tail, many_tail_terms, many, many_terms, head), (few_tail, few_tail_terms, few, few_terms, no_head) = found
        assert many_tail_terms > 5 and many_terms > 40 and head > 20
        assert few_tail_terms == few_terms == 2 and no_head == 0
        # psi_q's tail: q^y, q and 1 - q.
        assert many_tail == few_tail == 3
        # psi_q_m's tail adds q^(y/m), and expm1 of y ln q / m for its
        # rounding where q^(y/m) >= 1/2, and one expm1 at its one candidate
        # stop; a head adds q, 1 - q, q^x and 1 - q^x.
        assert few == 3 + 1 + 1
        assert many == 3 + 2 + 1 + 4

    def test_q_stirling_psi_q_calls(self, monkeypatch):
        # N = 10 head terms at x = 0.05 and none at x = 30, at q = 0.9 and
        # near q = 1, with up to seven corrections each: N + 2 exp and expm1
        # calls, one log and no log1p.
        calls = {}
        for names in (("exp", "expm1"), ("log",), ("log1p",)):
            counting = _CountingMath(names)
            monkeypatch.setattr(qspecial, "math", counting)
            for x, n in ((0.05, 10), (30.0, 0)):
                for qv in (0.9, 1.0 - 1e-9):
                    counting.calls = 0
                    ev = psi_q(x, QParam(qv))
                    calls[names, x, qv] = (counting.calls, ev.terms_used - n)
        for (names, x, qv), (count, corrections) in calls.items():
            n = 10 if x < 10.0 else 0
            assert count == {"exp": n + 2, "log": 1, "log1p": 0}[names[0]], (names, x, qv, count)
            assert 0 < corrections <= qspecial._EM_TERMS, (x, qv, corrections)


class TestFixedCap:
    """The term cap is the fixed MAX_TERMS = 10^6, reached by psi_q_m with
    no patch near q = 1: at x = 1.5 the head alone is K = 1,732,051 terms
    at 1 - q = 1e-11, and at 1 - q = 5e-11 the head of K = 774,596 leaves
    the tail too few terms.  Each call takes about 0.2 s.  psi_q takes its
    q-Stirling form there, which does not read the cap."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("one_minus_q, in_head", [(1e-11, True), (5e-11, False)])
    def test_real_cap_stops_in_the_head_or_the_tail(self, monkeypatch, m, one_minus_q, in_head):
        tails = []

        def recording_tail(*args):
            try:
                return sum_geometric_decay(*args)
            except NonConvergence as exc:
                tails.append(exc.terms_used)
                raise

        monkeypatch.setattr(qspecial, "sum_geometric_decay", recording_tail)
        q = QParam(1.0 - one_minus_q)
        assert MAX_TERMS == qspecial.MAX_TERMS == 10**6
        assert (_head_length(1.5, q) >= MAX_TERMS) is in_head
        with pytest.raises(NonConvergence, match=r"^no convergence within 1000000 terms \(estimate ") as info:
            psi_q_m(m, 1.5, q)
        assert info.value.terms_used == MAX_TERMS
        assert math.isfinite(info.value.partial_value) and info.value.error_estimate > 0.0
        assert tails == ([] if in_head else [MAX_TERMS - _head_length(1.5, q)])
        assert psi_q(1.5, q).terms_used <= 17


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


def _assert_root_invariants(q, res):
    """A bracket at most 1e-12 wide around the root, across which psi_q,
    evaluated outside the solver, changes sign."""
    assert res.bracket_low < res.root < res.bracket_high, q.q
    assert psi_q(res.bracket_low, q).value < 0.0 < psi_q(res.bracket_high, q).value, q.q
    assert res.bracket_high - res.bracket_low <= 1e-12, q.q
    assert abs(res.residual) <= 1e-10, q.q
    if euler_gamma_q(q).value > 0.0:
        assert res.root > 1.0, q.q


def _guess_midpoint(q):
    guess, half = qspecial._root_guess(q), qspecial._ROOT_GUESS_HALF_WIDTH
    return 0.5 * ((guess - half) + (guess + half))


def _count_root_calls(monkeypatch):
    """The arguments of every psi_q and psi_q_m call, counted through the
    module names that psi_q_root calls and the benchmark tracer wraps."""
    calls, slopes = [], []

    def counting_psi_q(x, *args):
        calls.append(x)
        return psi_q(x, *args)

    def counting_psi_q_m(m, x, *args):
        slopes.append(x)
        return psi_q_m(m, x, *args)

    monkeypatch.setattr(qspecial, "psi_q", counting_psi_q)
    monkeypatch.setattr(qspecial, "psi_q_m", counting_psi_q_m)
    return calls, slopes


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
        # The last three are q at which psi_q was exactly 0 at a trial
        # point of the bisection that once found the root.
        extremes = [
            1e-300, 1e-100, 1e-30, 1e-12, 1e-6, 1e-3, 0.99, 0.999, 0.9999, 0.99999, 1.0 - 1e-8,
            0.9999978995096964, 0.999996912074033, 0.999999933814106,
        ]
        for qv in [*np.arange(0.05, 0.951, 0.05), *extremes]:
            q = QParam(float(qv))
            _assert_root_invariants(q, psi_q_root(q))

    def test_psi_evaluations_per_solve(self, monkeypatch):
        # Bisection takes about 44 psi_q calls, the secant from [1, x0] about
        # 8.7; from the fitted guess a solve takes exactly 1: the midpoint
        # residual, which with a lower bound on psi_q' certifies the
        # bracket, already at most 1e-12 wide.  Each bracket is then checked
        # directly, outside the solver, on every q where the count is pinned.
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
        roots = []
        for qv in [*np.arange(0.05, 0.951, 0.05), *(1.0 - one_minus_q)]:
            calls.clear()
            slopes.clear()
            q = QParam(float(qv))
            roots.append((q, qspecial.psi_q_root(q)))
            assert len(calls) == 1, (qv, len(calls))
            assert len(slopes) == 0, (qv, len(slopes))
        for q, res in roots:
            _assert_root_invariants(q, res)

    def test_no_argument_evaluated_twice(self, monkeypatch):
        # Each centre is evaluated once, and a Newton step takes psi_q' at
        # the midpoint just evaluated.  In the guess's range a solve is one
        # psi_q call; below it, from x_s = 1 + ln(s)/s, at most 4 psi_q and
        # 3 psi_q_m calls: the most over 5,000 q log-uniform in [least
        # normal, 0.05], where 4,851 solves take 1 call.
        calls, slopes = _count_root_calls(monkeypatch)
        rng = np.random.default_rng(31)
        for one_minus_q in np.exp(rng.uniform(math.log(0.05), math.log(0.95), size=600)):
            calls.clear()
            qspecial.psi_q_root(QParam(1.0 - float(one_minus_q)))
            assert len(set(calls)) == len(calls), (1.0 - float(one_minus_q), calls)
        for ln_q in rng.uniform(math.log(1e-30), math.log(0.05), size=200):
            q = QParam(math.exp(float(ln_q)))
            calls.clear()
            slopes.clear()
            qspecial.psi_q_root(q)
            assert len(set(calls)) == len(calls) <= 4, (q.q, calls)
            assert slopes == calls[:-1], (q.q, calls, slopes)

    def test_below_range_solves_stay_cheap(self, monkeypatch):
        # Below 0.05 a solve takes at most 4 psi_q and 3 psi_q_m calls, the
        # most over 5,000 q log-uniform in [least normal, 0.05], half the
        # loop's bound of _ROOT_CENTRES centres; it certifies a bracket
        # across which psi_q changes sign outside the solver.
        calls, slopes = _count_root_calls(monkeypatch)
        rng = np.random.default_rng(1703)
        for ln_q in rng.uniform(math.log(1e-300), math.log(0.05), size=2000):
            q = QParam(math.exp(float(ln_q)))
            calls.clear()
            slopes.clear()
            res = qspecial.psi_q_root(q)
            assert len(calls) <= 4 and len(slopes) <= 3, (q.q, len(calls), len(slopes))
            _assert_root_invariants(q, res)
        assert 2 * 4 <= qspecial._ROOT_CENTRES

    def test_no_zero_raises_after_the_last_centre(self, monkeypatch):
        # With psi_q shifted right by 10 it is positive near the guess, and
        # each Newton step moves the centre left but keeps it above 0: the
        # solve raises BracketFailure after _ROOT_CENTRES centres, never
        # evaluating at x <= 0 (which would raise DomainError), and takes
        # no step after the last centre, which the error names with its
        # residual.
        calls, slopes = _count_root_calls(monkeypatch)
        residuals = []

        def shifted_psi_q(x, q):
            calls.append(x)
            ev = psi_q(x + 10.0, q)
            residuals.append(ev.value)
            return ev

        monkeypatch.setattr(qspecial, "psi_q", shifted_psi_q)
        q = QParam(0.5)
        with pytest.raises(BracketFailure, match=f"within {qspecial._ROOT_CENTRES} centres") as info:
            qspecial.psi_q_root(q)
        assert calls[0] == _guess_midpoint(q)
        assert len(set(calls)) == len(calls) == qspecial._ROOT_CENTRES == 8, calls
        assert slopes == calls[:-1] and len(slopes) == 7 and min(calls) > 0.0, (calls, slopes)
        assert f"(last {calls[-1]!r}, residual {residuals[-1]!r})" in str(info.value)

    def test_centre_below_zero_raises(self, monkeypatch):
        # psi_q moved up by 1: the Newton step from the guess lands below 0,
        # where the solve stops with BracketFailure, evaluating nothing there.
        calls, slopes = _count_root_calls(monkeypatch)

        def raised_psi_q(x, q):
            calls.append(x)
            ev = psi_q(x, q)
            return ev._replace(value=ev.value + 1.0)

        monkeypatch.setattr(qspecial, "psi_q", raised_psi_q)
        q = QParam(0.5)
        with pytest.raises(BracketFailure, match=r"next -"):
            qspecial.psi_q_root(q)
        assert calls == slopes == [_guess_midpoint(q)]

    def test_slope_that_underflows_raises(self, monkeypatch):
        # At the least normal q, psi_q' at x = 1.5 underflows to 0: a centre
        # there takes no Newton step and the solve raises BracketFailure,
        # not ZeroDivisionError.
        q = QParam(sys.float_info.min)
        assert psi_q_m(1, 1.5, q).value == 0.0 < psi_q(1.5, q).value
        calls, slopes = _count_root_calls(monkeypatch)
        monkeypatch.setattr(qspecial, "_root_guess", lambda q: 1.5)
        with pytest.raises(BracketFailure, match=r"next nan"):
            psi_q_root(q)
        assert calls == slopes == [1.5]

    def test_capped_slope_still_steps(self, monkeypatch):
        # Under a cap of 5 terms psi_q near q = 0.049's zero fits and
        # psi_q' does not: each Newton step takes psi_q_m's partial sum, and
        # the solve certifies the same bracket as with no cap.
        q = QParam(0.049)
        expected = psi_q_root(q)
        calls, slopes = _count_root_calls(monkeypatch)
        _cap(monkeypatch, 5)
        assert psi_q_root(q) == expected
        assert len(slopes) == len(calls) - 1 >= 1, (calls, slopes)
        for x in slopes:
            with pytest.raises(NonConvergence):
                psi_q_m(1, x, q)

    @pytest.mark.parametrize("qv", [0.05, 0.3, 0.7, 0.95, 0.999])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_residual_beyond_the_reach_declines_the_guess(self, monkeypatch, qv, sign):
        # psi_q moved by a constant 3 times the reach, still below the 1e-10
        # residual bound: the midpoint no longer certifies the guess's
        # bracket.  One Newton step, with psi_q' at that midpoint, moves the
        # centre to the moved function's zero, which the next psi_q call
        # certifies: psi_q, psi_q', psi_q.
        q = QParam(qv)
        mid = _guess_midpoint(q)
        lo = qspecial._root_guess(q) - qspecial._ROOT_GUESS_HALF_WIDTH
        hi = qspecial._root_guess(q) + qspecial._ROOT_GUESS_HALF_WIDTH
        shift = sign * 3.0 * (hi - mid) * qspecial._psi_q_slope_floor(hi, q)
        assert abs(psi_q(mid, q).value) < abs(shift) < 1e-10
        calls, slopes = _count_root_calls(monkeypatch)

        def shifted_psi_q(x, q):
            calls.append(x)
            ev = psi_q(x, q)
            return ev._replace(value=ev.value + shift)

        monkeypatch.setattr(qspecial, "psi_q", shifted_psi_q)
        res = qspecial.psi_q_root(q)
        assert len(calls) == 2 and calls[0] == mid and slopes == [mid], (qv, calls, slopes)
        assert res.root == calls[1]
        moved = lambda t: psi_q(t, q).value + shift
        assert moved(res.bracket_low) < 0.0 < moved(res.bracket_high)
        assert res.bracket_high - res.bracket_low <= 1e-12

    def test_solves_near_one_take_one_call(self, monkeypatch):
        # psi_q's q-Stirling zero is a smooth function of s up to q = 1, and
        # the guess stays within 1.1e-14 of it beyond its fitted range: each
        # solve for 1 - q log-uniform in [1.1e-12, 1e-5], down to the largest
        # q QParam takes, is one psi_q call and no psi_q_m call (once up to 2
        # psi_q and 1 psi_q_m, and NonConvergence below 1 - q = 9.9e-11),
        # and certifies a bracket checked outside the solver.
        calls, slopes = _count_root_calls(monkeypatch)
        rng = np.random.default_rng(2301)
        for om in np.exp(rng.uniform(math.log(1.1e-12), math.log(1e-5), size=300)):
            q = QParam(1.0 - float(om))
            calls.clear()
            slopes.clear()
            res = qspecial.psi_q_root(q)
            assert len(calls) == 1 and slopes == [], (q.q, calls, slopes)
            _assert_root_invariants(q, res)

    def test_bumped_values_still_lead_to_the_true_zero(self, monkeypatch):
        # psi_q moved at the three points near the guess only, so that they
        # decrease (+1e-11, -1e-11, -2e-11).  The solve evaluates only the
        # midpoint; its bumped value moves the centre off the zero, where
        # the true psi_q sends the next Newton step back: three psi_q and
        # two psi_q_m calls, and the unbumped solve's root within 1e-12.
        q = QParam(0.5)
        expected = psi_q_root(q).root
        mid = _guess_midpoint(q)
        lo = qspecial._root_guess(q) - qspecial._ROOT_GUESS_HALF_WIDTH
        hi = qspecial._root_guess(q) + qspecial._ROOT_GUESS_HALF_WIDTH
        moved = {lo: 1e-11, mid: -1e-11, hi: -2e-11}
        calls, slopes = _count_root_calls(monkeypatch)

        def bumped_psi_q(x, q):
            calls.append(x)
            ev = psi_q(x, q)
            return ev._replace(value=moved[x]) if x in moved else ev

        monkeypatch.setattr(qspecial, "psi_q", bumped_psi_q)
        res = qspecial.psi_q_root(q)
        assert len(calls) == 3 and calls[0] == mid and slopes == calls[:-1], (calls, slopes)
        _assert_root_invariants(q, res)
        assert res.root == pytest.approx(ROOT_Q_HALF, abs=1e-12)
        assert res.root == pytest.approx(expected, abs=1e-12)

    def test_slope_floor_is_below_psi_q_prime(self):
        # L, the two-term floor that certifies each bracket, stays below
        # psi_q'(hi) at the top of the guess's bracket: 1 - q log-uniform
        # over [0.05, 0.95] and down to 1e-5 beyond it, and q log-uniform
        # from the least normal double to 0.05, 1,000 q each.  Below 0.05
        # L is psi_q' but for terms that fall to its rounding, while
        # psi_q_m stops once its tail bound is below REL_TOL of its sum, so
        # there L is held below that sum plus its bound.
        rng = np.random.default_rng(2001)
        lo, hi = math.log(0.05), math.log(0.95)
        one_minus_q = [*np.exp(rng.uniform(lo, hi, size=1000)), *np.exp(rng.uniform(math.log(1e-5), lo, size=1000))]
        small_q = np.exp(rng.uniform(math.log(sys.float_info.min), lo, size=1000))
        for qv in [*(1.0 - np.array(one_minus_q)), *small_q]:
            q = QParam(float(qv))
            top = qspecial._root_guess(q) + qspecial._ROOT_GUESS_HALF_WIDTH
            floor = qspecial._psi_q_slope_floor(top, q)
            slope = psi_q_m(1, top, q)
            ceiling = slope.value if qv >= 0.05 else slope.value + slope.error_estimate
            assert 0.0 < floor <= ceiling, (q.q, floor, slope)

    @pytest.mark.parametrize("qv", [sys.float_info.min, 1e-300, 1e-100, 1e-12, 0.049])
    def test_slope_floor_is_finite_below_the_fitted_range(self, qv):
        # The floor takes u / (1-u)^2 with u = q^t, which underflows to 0
        # where e^(s t) would overflow: at q = 1e-300 and x = 1.01 the
        # second term's expm1(s (x+1)) did, raising a bare OverflowError.
        q = QParam(qv)
        for x in (1.01, qspecial._root_guess(q) + qspecial._ROOT_GUESS_HALF_WIDTH):
            floor = qspecial._psi_q_slope_floor(x, q)
            assert 0.0 < floor < math.inf, (qv, x, floor)

    @pytest.mark.parametrize("qv", [0.05, 0.3, 0.7, 0.95, 0.99])
    def test_slope_floor_is_below_oracle_psi_q_prime(self, qv):
        q = QParam(qv)
        top = qspecial._root_guess(q) + qspecial._ROOT_GUESS_HALF_WIDTH
        assert qspecial._psi_q_slope_floor(top, q) < float(mp_psi_q_m(1, top, qv))

    def test_guess_that_misses_reaches_the_root(self, monkeypatch):
        # A guess off by 1e-3 or by 0.2 is not certified; Newton steps from
        # it reach the root of the solve from the true guess, within 1e-12,
        # in at most 5 psi_q calls, each centre evaluated once.
        calls, slopes = _count_root_calls(monkeypatch)
        true_guess = qspecial._root_guess
        for qv, miss in ((0.3, 1e-3), (0.7, -1e-3), (0.95, 0.2)):
            q = QParam(qv)
            expected = psi_q_root(q).root
            monkeypatch.setattr(qspecial, "_root_guess", lambda q, miss=miss: true_guess(q) + miss)
            calls.clear()
            slopes.clear()
            res = qspecial.psi_q_root(q)
            monkeypatch.setattr(qspecial, "_root_guess", true_guess)
            assert 1 < len(calls) <= 5 and slopes == calls[:-1], (qv, calls, slopes)
            assert len(set(calls)) == len(calls), (qv, calls)
            _assert_root_invariants(q, res)
            assert res.root == pytest.approx(expected, abs=1e-12)

    def test_guess_within_half_the_bracket(self):
        # The fitted guess stays within half the bracket's half-width of
        # psi_q's zero, bisected without the solver from [1, x0], x0 the
        # classical digamma zero (DLMF 5.4(iii)): uniform q and log-uniform
        # 1 - q over [0.05, 0.95], and 1 - q log-uniform down to 1e-5 beyond
        # it.
        def bisected_zero(q):
            lo, hi = 1.0, 1.4616321449683623
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

    def test_fit_script_loads_and_bisects(self):
        # scripts/fit_root_guess.py imports private names of qspecial: loaded
        # here without fitting (main() only runs as a script), a renamed one
        # fails this test instead of the next refit.  Its bisection and its
        # reach ratio agree with the solver at q = 0.5.
        path = Path(__file__).resolve().parent.parent / "scripts" / "fit_root_guess.py"
        spec = importlib.util.spec_from_file_location("fit_root_guess", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        q = QParam(0.5)
        guess = qspecial._root_guess(q)
        assert abs(script.bisected_zero(q) - guess) <= 0.5 * qspecial._ROOT_GUESS_HALF_WIDTH
        assert script.residual_over_reach(guess, q) < 1.0

    def test_fit_keeps_its_best_iterate(self):
        # Lawson's reweighting multiplies each weight by its point's error,
        # so points a step fits to the last bit drop out of the next: the
        # script returns its best iterate, at most plain least squares'
        # error, and stops once every weight is 0 (a cubic, fitted exactly).
        path = Path(__file__).resolve().parent.parent / "scripts" / "fit_root_guess.py"
        spec = importlib.util.spec_from_file_location("fit_root_guess", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        t = np.linspace(-1.0, 1.0, 60)
        basis = np.polynomial.chebyshev.chebvander(t, 3)
        for zeros in (np.exp(t), 1.0 + t * (0.5 - 0.25 * t * t)):
            plain = np.linalg.lstsq(basis, zeros, rcond=None)[0]
            coef, largest = script.lawson_fit(basis, zeros)
            assert np.all(np.isfinite(coef))
            assert largest == np.abs(basis @ coef - zeros).max() <= np.abs(basis @ plain - zeros).max()
        assert largest <= 1e-15

    def test_sign_change_around_root(self):
        for qv in (0.2, 0.6, 0.9):
            q = QParam(qv)
            root = psi_q_root(q).root
            assert psi_q(root - 1e-6, q).value < 0.0 < psi_q(root + 1e-6, q).value
