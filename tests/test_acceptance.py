"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one ``ACCEPTANCE <n> ...: PASS|FAIL`` line (visible under
``pytest -s`` or in the captured output of a failing run).
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from oracles import mp_gamma_q, mp_psi_q, mp_psi_q_m, mp_q_factorial
from qgamma.classical import ln_gamma_classical, psi_classical
from qgamma.qcore import QParam, q_bracket
from qgamma.qspecial import euler_gamma_q, gamma_q, ln_gamma_q, psi_q, psi_q_m, psi_q_root
from qgamma.bounds import (
    INEQUALITY_IDS,
    cor_half_shift_bounds,
    cor_mu_lambda_bounds,
    cor_one_half_bounds,
    remark_rearranged_bounds,
    thm_main_bounds,
    thm_mvt_bounds,
)
from qgamma.propcheck import run_check


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_functional_equation_suite():
    with criterion("1 functional-equation suite"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for _ in range(10_000):
            x = float(rng.uniform(1e-6, 50.0))
            q = QParam(float(rng.uniform(0.05, 0.95)))
            upper = ln_gamma_q(x + 1.0, q).value
            residual = upper - ln_gamma_q(x, q).value - math.log(q_bracket(x, q))
            assert abs(residual) <= 1e-10 * max(1.0, abs(upper))
        elapsed = time.perf_counter() - start
        assert elapsed <= 30.0, f"functional-equation suite took {elapsed:.1f}s"


def test_criterion_2_integer_value_suite():
    with criterion("2 integer-value suite"):
        for qv in (0.1, 0.3, 0.5, 0.7, 0.9):
            q = QParam(qv)
            for n in range(0, 21):
                expected = float(mp_q_factorial(n, qv))
                value = gamma_q(n + 1.0, q).value
                assert abs(value - expected) <= 1e-12 * abs(expected), (n, qv)


def test_criterion_3_derivative_suite():
    # Grid keeps every compared derivative above the central-difference
    # cancellation floor: below x=2 the digamma itself crosses zero, and
    # beyond x~8 (at q=0.2) the first derivative decays under eps*|psi|/h.
    with criterion("3 derivative suite"):
        h = 1e-5
        grid = np.linspace(2.0, 7.0, 50)
        for qv in (0.2, 0.5, 0.8):
            q = QParam(qv)
            for x in grid:
                x = float(x)
                fd = (ln_gamma_q(x + h, q).value - ln_gamma_q(x - h, q).value) / (2 * h)
                value = psi_q(x, q).value
                assert abs(value - fd) <= 1e-6 * abs(value), ("psi", x, qv)
                fd = (psi_q(x + h, q).value - psi_q(x - h, q).value) / (2 * h)
                value = psi_q_m(1, x, q).value
                assert abs(value - fd) <= 1e-6 * abs(value), ("psi'", x, qv)
                fd = (psi_q_m(1, x + h, q).value - psi_q_m(1, x - h, q).value) / (2 * h)
                value = psi_q_m(2, x, q).value
                assert abs(value - fd) <= 1e-6 * abs(value), ("psi''", x, qv)


def test_criterion_4_inequality_certification():
    with criterion("4 inequality certification (verify --ineq all)"):
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "qgamma.cli", "verify", "--ineq", "all",
             "--samples", "10000", "--seed", "42", "--format", "json"],
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - start
        assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
        reports = {r["inequality_id"]: r for r in json.loads(result.stdout)}
        for ineq in INEQUALITY_IDS:
            rep = reports[ineq]
            assert rep["n_pass"] == rep["n_samples"] == 10_000, (ineq, rep["failures"][:3])
        assert elapsed <= 120.0, f"verify run took {elapsed:.1f}s"


def test_criterion_5_specialization_identities():
    with criterion("5 specialization identities"):
        rng = np.random.default_rng(555)
        for _ in range(1000):
            q = QParam(float(rng.uniform(0.05, 0.95)))
            x = float(rng.uniform(0.05, 20.0))
            a = cor_half_shift_bounds(x, q)
            b = thm_main_bounds(x + 1.0, x + 0.5, q, force=True)
            assert (a.log_lower, a.log_ratio, a.log_upper) == (b.log_lower, b.log_ratio, b.log_upper)

            a = cor_one_half_bounds(x, q)
            b = thm_mvt_bounds(x + 1.0, x + 0.5, q)
            assert (a.log_lower, a.log_ratio, a.log_upper) == (b.log_lower, b.log_ratio, b.log_upper)

            lam = float(rng.uniform(0.05, 3.0))
            mu = lam + float(rng.uniform(1e-3, 2.0))
            a = cor_mu_lambda_bounds(x, mu, lam, q)
            b = thm_mvt_bounds(x + mu, x + lam, q)
            assert (a.log_lower, a.log_ratio, a.log_upper) == (b.log_lower, b.log_ratio, b.log_upper)

            a = remark_rearranged_bounds(x, q)
            b = cor_one_half_bounds(x, q)
            log_bracket = math.log(q_bracket(x, q))
            assert (a.log_lower, a.log_ratio, a.log_upper) == (
                b.log_lower - log_bracket, b.log_ratio - log_bracket, b.log_upper - log_bracket)


def test_criterion_6_convexity_and_lemma_suites():
    with criterion("6 convexity and lemma suites"):
        for check_id in ("convexity_f_thm_main", "convexity_g_thm_alpha",
                         "slope_f_thm_main", "slope_g_thm_alpha"):
            report = run_check(check_id, seed=42, samples=10_000)
            assert report.n_samples >= 10_000, check_id
            assert report.n_pass == report.n_samples, (check_id, report.failures[:3])


def test_criterion_7_limit_suite():
    with criterion("7 limit suite"):
        q_seq = (0.9, 0.99, 0.999)
        for x in (0.5, 1.5, 2.5, 4.0):
            gamma_ref = math.exp(ln_gamma_classical(x).value)
            psi_ref = psi_classical(x).value
            g_devs = [abs(gamma_q(x, QParam(qv)).value - gamma_ref) for qv in q_seq]
            p_devs = [abs(psi_q(x, QParam(qv)).value - psi_ref) for qv in q_seq]
            assert g_devs[0] > g_devs[1] > g_devs[2], ("gamma", x, g_devs)
            assert p_devs[0] > p_devs[1] > p_devs[2], ("psi", x, p_devs)
            assert g_devs[-1] <= 5e-2 * abs(gamma_ref), ("gamma terminal", x)
            assert p_devs[-1] <= 5e-2 * abs(psi_ref), ("psi terminal", x)
        assert abs(euler_gamma_q(QParam(0.999)).value - 0.577215664) <= 1e-2


def test_criterion_8_root_suite():
    with criterion("8 root suite"):
        for qv in np.arange(0.05, 0.951, 0.05):
            q = QParam(float(qv))
            res = psi_q_root(q)
            assert abs(res.residual) <= 1e-10, qv
            assert psi_q(res.bracket_low, q).value < 0.0 < psi_q(res.bracket_high, q).value, qv
            assert res.bracket_low < res.root < res.bracket_high, qv
        root_half = psi_q_root(QParam(0.5)).root
        assert 1.0 < root_half < 2.0


def test_criterion_9_oracle_equivalence():
    with criterion("9 oracle equivalence"):
        rng = np.random.default_rng(99)
        for i in range(100):
            x = float(rng.uniform(0.5, 15.0))
            qv = float(rng.uniform(0.05, 0.95))
            q = QParam(qv)

            ev = gamma_q(x, q)
            oracle = float(mp_gamma_q(x, qv, terms=ev.terms_used + 250))
            assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle), ("gamma_q", x, qv)

            ev = psi_q(x, q)
            oracle = float(mp_psi_q(x, qv, terms=ev.terms_used + 250))
            assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle), ("psi_q", x, qv)

            m = 1 + i % 2
            ev = psi_q_m(m, x, q)
            oracle = float(mp_psi_q_m(m, x, qv, terms=ev.terms_used + 250))
            assert abs(ev.value - oracle) <= ev.error_estimate + 1e-12 * abs(oracle), ("psi_q_m", m, x, qv)


def test_criterion_10_harness_self_test():
    with criterion("10 harness self-test"):
        result = subprocess.run(
            [sys.executable, "-m", "qgamma.cli", "verify", "--ineq", "thm_mvt",
             "--samples", "300", "--seed", "9", "--corrupt-bounds", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        report = json.loads(result.stdout)[0]
        assert report["n_pass"] < report["n_samples"]
        assert len(report["failures"]) > 0
