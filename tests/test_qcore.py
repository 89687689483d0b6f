import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import mp_q_bracket

from qgamma.errors import DomainError, NonConvergence, Overflow
from qgamma.qcore import (
    ABS_TOL,
    EvalConfig,
    QParam,
    cap_error,
    q_bracket,
    q_bracket_derivative,
    q_factorial,
    q_pow,
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


class TestEvalConfig:
    def test_defaults(self):
        assert EvalConfig().max_terms == 10**6

    @pytest.mark.parametrize("kwargs", [
        {"max_terms": -(10**6)},
        {"max_terms": -2},
        {"max_terms": -1},
        {"max_terms": 0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(DomainError):
            EvalConfig(**kwargs)

    def test_term_cap_is_the_only_field(self):
        assert list(EvalConfig._fields) == ["max_terms"]


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


class TestQFactorial:
    def test_known_values(self):
        assert q_factorial(0, QParam(0.9)) == 1.0
        assert q_factorial(2, QParam(0.5)) == pytest.approx(1.5, rel=1e-15)
        assert q_factorial(3, QParam(0.5)) == pytest.approx(2.625, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            q_factorial(-1, QParam(0.5))

    def test_overflow_reported(self):
        with pytest.raises(Overflow):
            q_factorial(400, QParam(1.0 - 1e-10))


class TestSumGeometricDecay:
    def test_geometric_series(self):
        ev = sum_geometric_decay(lambda n: 0.5**n, 0.5, 1)
        assert ev.value == pytest.approx(1.0, rel=1e-13)
        assert ev.error_estimate <= 1e-13 * 1.01

    def test_zero_series_minimal_terms(self):
        ev = sum_geometric_decay(lambda n: 0.0, 0.5, 0)
        assert ev.value == 0.0
        assert ev.terms_used == 1

    def test_lambert_style_series(self):
        # sum q^n / (1 - q^n) at q = 0.5; expected from a 200-term
        # extended-precision partial sum.
        q = 0.5
        ev = sum_geometric_decay(lambda n: q**n / (1 - q**n), q, 1)
        assert ev.value == pytest.approx(1.6066951524152917638, rel=1e-13)

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_error_estimate_covers_true_tail(self, r):
        """Closed forms: sum r^n = r/(1-r), sum r^n/n = -ln(1-r)."""
        ev = sum_geometric_decay(lambda n: r**n, r, 1)
        exact = r / (1 - r)
        assert abs(ev.value - exact) <= ev.error_estimate + 1e-13 * abs(exact)
        ev = sum_geometric_decay(lambda n: r**n / n, r, 1)
        exact = -math.log1p(-r)
        assert abs(ev.value - exact) <= ev.error_estimate + 1e-13 * abs(exact)

    def test_alternating_series(self):
        r = 0.7
        ev = sum_geometric_decay(lambda n: (-r) ** n, r, 0)
        exact = 1.0 / (1.0 + r)
        assert abs(ev.value - exact) <= ev.error_estimate + 1e-13 * abs(exact)

    def test_non_convergence_carries_partial(self):
        cfg = EvalConfig(max_terms=10)
        with pytest.raises(NonConvergence) as info:
            sum_geometric_decay(lambda n: 0.999**n, 0.999, 1, cfg)
        assert info.value.terms_used == 10
        assert info.value.partial_value > 0.0
        assert info.value.error_estimate > 0.0

    def test_rejects_bad_ratio(self):
        with pytest.raises(DomainError):
            sum_geometric_decay(lambda n: 0.5**n, 1.0, 1)
        with pytest.raises(DomainError):
            sum_geometric_decay(lambda n: 0.5**n, 0.0, 1)

    def test_respects_abs_tol_floor(self):
        # The sum is ~2e-305: its tail bound is under the fixed 1e-300
        # underflow floor after one term, long before it reaches 1e-13 of it.
        ev = sum_geometric_decay(lambda n: 1e-305 * 0.5**n, 0.5, 0)
        assert ev.terms_used == 1
        assert ev.error_estimate <= ABS_TOL

    def test_no_stop_before_ratio_from(self):
        # The terms rise to n = 5 and fall by 1/2 from there; the first two
        # are zero, which alone would stop the sum after one term.
        def term(n):
            return 0.0 if n < 3 else 2.0 ** (n - 5 if n < 5 else 5 - n)

        assert sum_geometric_decay(term, 0.5, 1).value == 0.0
        ev = sum_geometric_decay(term, 0.5, 1, EvalConfig(), 5)
        assert ev.value == pytest.approx(0.25 + 0.5 + 2.0, rel=1e-13)
        assert ev.terms_used >= 4

    def test_ratio_from_at_or_before_the_start_changes_nothing(self):
        term = lambda n: 0.7**n / n
        plain = sum_geometric_decay(term, 0.7, 1)
        for ratio_from in (-3, 0, 1, 2):
            assert sum_geometric_decay(term, 0.7, 1, EvalConfig(), ratio_from) == plain

    def test_cap_before_ratio_from_has_no_bound(self):
        calls = []

        def term(n):
            calls.append(n)
            return 1.0

        with pytest.raises(NonConvergence) as info:
            sum_geometric_decay(term, 0.5, 1, EvalConfig(max_terms=3), 10)
        assert calls == [1, 2, 3]
        assert info.value.terms_used == 3
        assert info.value.partial_value == 3.0
        assert info.value.error_estimate == math.inf


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
        exc = cap_error(EvalConfig(max_terms=7), 1.5, 2.5e-3, 6)
        assert isinstance(exc, NonConvergence)
        assert str(exc) == "no convergence within 7 terms (estimate 2.500e-03)"
        assert (exc.partial_value, exc.error_estimate, exc.terms_used) == (1.5, 2.5e-3, 6)
