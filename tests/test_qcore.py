import math

import numpy as np
import pytest
import rounding
from hypothesis import given, settings, strategies as st
from oracles import mp_q_bracket

from qgamma.errors import DomainError, NonConvergence
from qgamma.qcore import (
    ABS_TOL,
    MAX_TERMS,
    QParam,
    cap_error,
    q_bracket,
    q_bracket_derivative,
    q_pow,
    require_count,
    require_positive,
    sum_geometric_decay,
)


class TestQParam:
    def test_valid_range(self):
        assert QParam(0.5).q == 0.5
        assert QParam(1e-9).q == 1e-9

    @pytest.mark.parametrize("bad", [0.0, -0.3, 1.0, 1.5, 1.0 - 1e-13])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            QParam(bad)

    def test_ln_q_cached(self):
        q = QParam(0.37)
        assert q.ln_q == math.log(0.37)

    def test_ln_q_is_not_an_argument(self):
        with pytest.raises(TypeError):
            QParam(0.5, 123.0)

    def test_q_pow_definition(self):
        q = QParam(0.3)
        assert q_pow(q, 2.5) == math.exp(2.5 * math.log(0.3))


class TestQBracket:
    def test_known_values(self):
        assert q_bracket(1.0, QParam(0.3)) == pytest.approx(1.0, abs=1e-15)
        assert q_bracket(2.0, QParam(0.5)) == pytest.approx(1.5, abs=1e-15)
        assert q_bracket(0.0, QParam(0.7)) == pytest.approx(0.0, abs=1e-15)

    def test_nonnegative_for_nonnegative_x(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = float(rng.uniform(0, 40))
            q = QParam(float(rng.uniform(0.01, 0.99)))
            assert q_bracket(x, q) >= 0.0

    @given(
        x=st.floats(min_value=0.0, max_value=50.0),
        q=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=300, deadline=None)
    def test_recurrence(self, x, q):
        """[x+1]_q = 1 + q [x]_q."""
        qp = QParam(q)
        lhs = q_bracket(x + 1.0, qp)
        rhs = 1.0 + q * q_bracket(x, qp)
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("x, qv", [(1e-10, 0.5), (1e-13, 0.9), (0.05, 0.95)])
    def test_small_x_keeps_its_digits(self, x, qv):
        exact = mp_q_bracket(x, qv)
        assert abs(q_bracket(x, QParam(qv)) - exact) <= 4e-16 * exact

    def test_limit_toward_identity(self):
        """[x]_q -> x as q -> 1."""
        q = QParam(1.0 - 1e-6)
        for x in np.linspace(0.5, 10, 25):
            assert abs(q_bracket(float(x), q) - x) <= 1e-4 * x


class TestQBracketDerivative:
    def test_known_values(self):
        assert q_bracket_derivative(0.0, QParam(0.5)) == pytest.approx(2 * math.log(2), rel=1e-15)
        assert q_bracket_derivative(1.0, QParam(0.5)) == pytest.approx(math.log(2), rel=1e-15)

    def test_positive_and_decaying(self):
        q = QParam(0.5)
        values = [q_bracket_derivative(x, q) for x in (0.0, 5.0, 20.0, 80.0)]
        assert all(v > 0 for v in values)
        assert values == sorted(values, reverse=True)
        assert values[-1] < 1e-20

    def test_matches_finite_difference(self):
        # (bracket(x+h) - bracket(x-h)) / 2h written as a single quotient of
        # q-powers; the naive value difference cancels catastrophically where
        # the bracket is flat (large x, small q).
        h = 1e-6
        for qv in (0.1, 0.5, 0.9):
            q = QParam(qv)
            for x in np.linspace(0.0, 20.0, 21):
                x = float(x)
                fd = (q_pow(q, x - h) - q_pow(q, x + h)) / ((1.0 - qv) * 2 * h)
                assert q_bracket_derivative(x, q) == pytest.approx(fd, rel=1e-7)


# ln q = -800 makes every 1 - q^n exactly 1 (q = exp(-800) = 0), so the
# m = 0 summand is q^(ny) alone: a plain geometric series.
FLAT_LN_Q = -800.0


def _carried_summands(y_ln_q, ln_q, m, scale, count):
    """The first ``count`` summands as sum_geometric_decay forms them:
    q = exp(ln q), 1 - q = -expm1(ln q) and q^y (m = 0) or q^(y/m) taken
    once, each later power the one before times its base, 1 - q^n as
    (1 - q^(n-1)) + q^(n-1) (1 - q), and for m >= 1 the rounding eps of
    q^(y/m) >= 1/2 taken back out as scale (1 + n eps)."""
    base, gap = math.exp(ln_q), -math.expm1(ln_q)
    a = y_ln_q / m if m else y_ln_q
    step = math.exp(a)
    drift = scale * ((1.0 - step) + math.expm1(a)) / step if m and step >= 0.5 else 0.0
    one_minus_q_n, rise, power = gap, gap * base, step
    summands = []
    for n in range(1, count + 1):
        if n > 1:
            one_minus_q_n += rise
            rise *= base
            power *= step
        summands.append((n * power * (scale + n * drift)) ** m / one_minus_q_n if m else power / one_minus_q_n)
    return summands


def _near_the_closures(carried, closures, y_ln_q, m):
    """Each carried summand is within both forms' rounding bounds
    (tests/rounding.py) of its closure, which takes one exp and one expm1."""
    return all(
        abs(got - ref)
        <= rounding.term_bound(
            ref, rounding.tail_summand_closure(n, y_ln_q, m), rounding.tail_summand_carried(n, y_ln_q, m)
        )
        for n, (got, ref) in enumerate(zip(carried, closures), start=1)
    )


class TestSumGeometricDecay:
    def test_geometric_series(self):
        ev = sum_geometric_decay(math.log(0.5), FLAT_LN_Q)
        assert ev.value == pytest.approx(1.0, rel=1e-13)
        assert ev.error_estimate <= 1e-13 * 1.01

    def test_zero_series_minimal_terms(self):
        ev = sum_geometric_decay(FLAT_LN_Q, FLAT_LN_Q)
        assert ev.value == 0.0
        assert ev.terms_used == 1

    def test_lambert_style_series(self):
        # sum q^n / (1 - q^n) at q = 0.5; expected from a 200-term
        # extended-precision partial sum.
        ln_q = math.log(0.5)
        ev = sum_geometric_decay(ln_q, ln_q)
        assert ev.value == pytest.approx(1.6066951524152917638, rel=1e-13)

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_error_estimate_covers_true_tail(self, r):
        """Closed forms: sum r^n = r/(1-r), sum n r^n = r/(1-r)^2."""
        ev = sum_geometric_decay(math.log(r), FLAT_LN_Q)
        exact = r / (1 - r)
        assert abs(ev.value - exact) <= ev.error_estimate + 1e-13 * abs(exact)
        ev = sum_geometric_decay(math.log(r), FLAT_LN_Q, 10**6, 1)
        exact = r / (1 - r) ** 2
        assert abs(ev.value - exact) <= ev.error_estimate + 1e-13 * abs(exact)

    def test_summands_are_the_psi_family_tails(self):
        # n = 1..3 of q^(ny) / (1 - q^n) and of (n q^(ny/m) scale)^m / (1 - q^n),
        # formed as the engine carries them, under a 3-term cap, with the
        # bound from index 4 at q^y and at (1 + 1/4)^m q^y; each within
        # rounding of the closed form with one exp and one expm1 per term.
        y_ln_q, ln_q, scale = -0.9, -0.4, 1.7
        for m, term, bound in (
            (
                0,
                lambda n: math.exp(n * y_ln_q) / -math.expm1(n * ln_q),
                lambda t: t * (1.0 / (1.0 - math.exp(y_ln_q))),
            ),
            (
                3,
                lambda n: (n * math.exp(n * (y_ln_q / 3)) * scale) ** 3 / -math.expm1(n * ln_q),
                lambda t: t / -math.expm1(3 * math.log1p(1 / 4) + y_ln_q),
            ),
        ):
            carried = _carried_summands(y_ln_q, ln_q, m, scale, 4)
            assert _near_the_closures(carried, [term(n) for n in range(1, 5)], y_ln_q, m)
            with pytest.raises(NonConvergence) as info:
                sum_geometric_decay(y_ln_q, ln_q, 3, m, scale)
            assert info.value.partial_value == carried[0] + carried[1] + carried[2]
            assert info.value.error_estimate == bound(carried[3])

    def test_non_convergence_carries_partial(self):
        with pytest.raises(NonConvergence) as info:
            sum_geometric_decay(math.log(0.999), FLAT_LN_Q, 10)
        assert info.value.terms_used == 10
        assert info.value.partial_value > 0.0
        assert info.value.error_estimate > 0.0

    @pytest.mark.parametrize("m", [0, 1])
    def test_non_convergence_at_exactly_the_budget(self, m):
        # The budget is a count: a sum that stops after T terms returns the
        # same under a budget of T, and raises after exactly T - 1.
        y_ln_q, ln_q = 2.0 * math.log(0.7), math.log(0.7)
        full = sum_geometric_decay(y_ln_q, ln_q, 10**6, m)
        assert full.terms_used > 2
        assert sum_geometric_decay(y_ln_q, ln_q, full.terms_used, m) == full
        budget = full.terms_used - 1
        with pytest.raises(NonConvergence, match=rf"^no convergence within {budget} terms \(") as info:
            sum_geometric_decay(y_ln_q, ln_q, budget, m)
        assert info.value.terms_used == budget
        assert 0.0 < full.value - info.value.partial_value <= info.value.error_estimate
        # Summands that barely fall (q^y = e^-1e-9) stop at the budget,
        # every one added.
        with pytest.raises(NonConvergence) as info:
            sum_geometric_decay(-1e-9, FLAT_LN_Q, 5)
        assert info.value.partial_value == sum(math.exp(n * -1e-9) for n in range(1, 6))
        assert info.value.terms_used == 5

    @pytest.mark.parametrize("budget", [0, -1, -(10**6)])
    def test_budget_below_one_raises_like_require_count(self, budget):
        with pytest.raises(DomainError) as expected:
            require_count(budget, "max_terms")
        for m in (0, 1):
            with pytest.raises(DomainError) as info:
                sum_geometric_decay(math.log(0.5), FLAT_LN_Q, budget, m, 1.0)
            assert str(info.value) == str(expected.value) == f"max_terms must be >= 1, got {budget}"

    def test_default_budget_is_the_fixed_cap(self):
        # Summands that barely fall (q^y = e^-1e-9) run to the budget.
        assert MAX_TERMS == 10**6
        with pytest.raises(NonConvergence, match=r"^no convergence within 1000000 terms \(") as info:
            sum_geometric_decay(-1e-9, FLAT_LN_Q)
        assert info.value.terms_used == MAX_TERMS

    def test_rejects_bad_ratio(self):
        # The series diverge unless q^y = exp(y ln q) < 1 and ln q < 0; the
        # last y ln q is so near 0 that exp rounds it to 1.
        for y_ln_q, ln_q in ((0.0, FLAT_LN_Q), (0.5, FLAT_LN_Q), (-1.0, 0.0), (-1.0, 0.1), (-1e-17, FLAT_LN_Q)):
            for m in (0, 1):
                with pytest.raises(DomainError, match="^the tail needs exp"):
                    sum_geometric_decay(y_ln_q, ln_q, 10, m)
        with pytest.raises(DomainError):
            sum_geometric_decay(math.nan, FLAT_LN_Q)

    def test_respects_abs_tol_floor(self):
        # The sum n 0.25^n 1e-305 is ~4.4e-306: its tail bound is under the
        # fixed 1e-300 underflow floor after one term, long before it reaches
        # 1e-13 of it.
        ev = sum_geometric_decay(math.log(0.25), FLAT_LN_Q, 10**6, 1, 1e-305)
        assert ev.terms_used == 1
        assert ev.error_estimate <= ABS_TOL

    # (n exp(-n/10) e/10)^1000 = (n/10 exp(1 - n/10))^1000 rises to 1 at
    # n = 10 and falls from there; the first two summands underflow to zero,
    # which a bound at q^y = e^-100 alone would stop on after one term.
    RISING = (1000, -100.0, math.e / 10.0)

    def _rising_term(self, n):
        m, y_ln_q, scale = self.RISING
        return (n * math.exp(n * (y_ln_q / m)) * scale) ** m / -math.expm1(n * FLAT_LN_Q)

    def test_no_stop_while_the_ratio_bound_is_at_least_one(self):
        # r_n = (1 + 1/n)^1000 e^-100 is at least 1 up to n = 9, so no stop
        # can fire before the peak at n = 10.
        m, y_ln_q, scale = self.RISING
        assert self._rising_term(1) == self._rising_term(2) == 0.0 < self._rising_term(3)
        assert m * math.log1p(1 / 9) + y_ln_q >= 0.0 > m * math.log1p(1 / 10) + y_ln_q
        ev = sum_geometric_decay(y_ln_q, FLAT_LN_Q, 10**6, m, scale)
        assert ev.value == pytest.approx(math.fsum(self._rising_term(n) for n in range(1, 100)), rel=1e-13)
        assert ev.terms_used >= 10

    def test_cap_while_the_ratio_bound_is_at_least_one_has_no_bound(self):
        # Capped before r_n drops below 1 the estimate is inf; capped after
        # it, the bound from the first omitted index.  The summands are the
        # engine's carried ones, within rounding of the closed form's.
        m, y_ln_q, scale = self.RISING
        carried = _carried_summands(y_ln_q, FLAT_LN_Q, m, scale, 11)
        assert _near_the_closures(carried, [self._rising_term(n) for n in range(1, 12)], y_ln_q, m)
        for cap in (3, 8):
            with pytest.raises(NonConvergence) as info:
                sum_geometric_decay(y_ln_q, FLAT_LN_Q, cap, m, scale)
            assert info.value.terms_used == cap
            assert info.value.partial_value == sum(carried[:cap])
            assert info.value.error_estimate == math.inf
        with pytest.raises(NonConvergence) as info:
            sum_geometric_decay(y_ln_q, FLAT_LN_Q, 10, m, scale)
        ratio_log = m * math.log1p(1 / 11) + y_ln_q
        assert info.value.error_estimate == carried[10] / -math.expm1(ratio_log) < math.inf


class TestRequirePositive:
    def test_accepts_finite_positive(self):
        for value in (5e-324, 1e-300, 1.0, 1e308):
            require_positive(value)

    def test_rejects_infinite_nan_and_nonpositive(self):
        for value in (math.inf, -math.inf, math.nan, 0.0, -0.0, -1.0):
            with pytest.raises(DomainError, match=r"^y must be finite and positive"):
                require_positive(value, "y")


class TestCapError:
    def test_message_and_attributes(self):
        exc = cap_error(7, 1.5, 2.5e-3, 6)
        assert isinstance(exc, NonConvergence)
        assert str(exc) == "no convergence within 7 terms (estimate 2.500e-03)"
        assert (exc.partial_value, exc.error_estimate, exc.terms_used) == (1.5, 2.5e-3, 6)
