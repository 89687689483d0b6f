import math

import numpy as np
import pytest
from mpmath import mp, mpf
from oracles import mp_ln_gamma_classical

from qgamma.classical import (
    EULER_GAMMA,
    ln_gamma_classical,
    psi_classical,
)
from qgamma.errors import DomainError
from qgamma.qcore import QParam
from qgamma.qspecial import gamma_q, psi_q

LN_SQRT_PI = 0.5723649429247001  # oracle-confirmed analytic check value
LN_24 = 3.1780538303479456
PSI_AT_HALF = -1.9635100260214235  # -gamma - 2 ln 2, matches the 2e5-term series oracle

# x in [0.05, 30], with points on both sides of the recurrence threshold 10.
ORACLE_GRID = [float(x) for x in np.linspace(0.05, 30.0, 61)] + [9.999, math.nextafter(10.0, 0.0), 10.0]
ORACLE_ABS_TOL = 1e-13


class TestLnGammaClassical:
    def test_at_one(self):
        assert ln_gamma_classical(1.0).value == pytest.approx(0.0, abs=1e-9)

    def test_at_five(self):
        assert ln_gamma_classical(5.0).value == pytest.approx(LN_24, rel=1e-8)

    def test_at_half(self):
        assert ln_gamma_classical(0.5).value == pytest.approx(LN_SQRT_PI, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ln_gamma_classical(0.0)

    def test_matches_oracle(self):
        for x in ORACLE_GRID:
            ev = ln_gamma_classical(x)
            assert abs(ev.value - float(mp_ln_gamma_classical(x))) <= ORACLE_ABS_TOL, x
            assert ev.error_estimate >= 0.0
            assert ev.terms_used >= 1

    def test_error_estimate_is_first_omitted_term(self):
        # B_18 / (18 * 17 * z^17) at the shifted argument z = x + n >= 10.
        for x, z in ((0.05, 10.05), (9.999, 10.999), (10.0, 10.0), (25.0, 25.0)):
            ev = ln_gamma_classical(x)
            omitted = mp.bernoulli(18) / (18 * 17 * mpf(z) ** 17)
            assert ev.error_estimate == pytest.approx(float(omitted), rel=1e-12)

    def test_functional_equation(self):
        for x in np.linspace(0.25, 29.0, 24):
            x = float(x)
            lhs = ln_gamma_classical(x + 1.0).value
            rhs = ln_gamma_classical(x).value + math.log(x)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


class TestPsiClassical:
    def test_at_one(self):
        assert psi_classical(1.0).value == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_at_two(self):
        assert psi_classical(2.0).value == pytest.approx(1.0 - EULER_GAMMA, abs=1e-9)

    def test_at_half(self):
        assert psi_classical(0.5).value == pytest.approx(PSI_AT_HALF, abs=1e-9)

    def test_matches_ln_gamma_derivative(self):
        h = 1e-4
        for x in (0.5, 1.0, 2.5, 7.0, 20.0):
            fd = (ln_gamma_classical(x + h).value - ln_gamma_classical(x - h).value) / (2 * h)
            assert psi_classical(x).value == pytest.approx(fd, rel=1e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            psi_classical(-1.0)

    def test_matches_oracle(self):
        for x in ORACLE_GRID:
            ev = psi_classical(x)
            assert abs(ev.value - float(mp.digamma(mpf(x)))) <= ORACLE_ABS_TOL, x
            assert ev.error_estimate >= 0.0
            assert ev.terms_used >= 1


class TestEulerGammaClassical:
    def test_stored_constant(self):
        assert EULER_GAMMA == 0.5772156649015329

    def test_consistent_with_psi(self):
        assert -psi_classical(1.0).value == pytest.approx(EULER_GAMMA, abs=1e-7)

    def test_consistent_with_ln_gamma_slope(self):
        h = 1e-4
        fd = (ln_gamma_classical(1.0 + h).value - ln_gamma_classical(1.0 - h).value) / (2 * h)
        assert -fd == pytest.approx(EULER_GAMMA, abs=1e-5)


class TestQToOneBridge:
    def test_deviations_shrink_as_q_rises(self):
        for x in (0.5, 1.5, 2.5, 4.0):
            gamma_ref = math.exp(ln_gamma_classical(x).value)
            psi_ref = psi_classical(x).value
            g_devs = [abs(gamma_q(x, QParam(qv)).value - gamma_ref) for qv in (0.9, 0.99, 0.999)]
            p_devs = [abs(psi_q(x, QParam(qv)).value - psi_ref) for qv in (0.9, 0.99, 0.999)]
            assert g_devs[0] > g_devs[1] > g_devs[2]
            assert p_devs[0] > p_devs[1] > p_devs[2]
