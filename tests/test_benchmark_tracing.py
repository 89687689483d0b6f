"""The benchmark's per-layer tracer must still see the work it reports.

``perfbench/tracing.py`` rebinds functions by their module-level names, so an
operation reached through a reference captured at import time would drop out
of the traced benchmark without any error.  These run tiny traced passes and
require spans for each ``*_bounds`` operation, for the ``psi_q`` calls
inside a root solve, for the one ``ln_gamma_q`` call of a ratio, and for the
series terms of ``psi_q`` below x = 1, or their absence where ``psi_q`` takes
its q-Stirling form.
"""

import math
import sys
from pathlib import Path

import qgamma.bounds as bounds
import qgamma.propcheck as propcheck
import qgamma.qspecial as qspecial
from qgamma.bounds import INEQUALITY_IDS, DomainSpec
from qgamma.qcore import REL_TOL, QParam

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced_summary(monkeypatch, run):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        run()
    finally:
        tracer.uninstall()
    return tracer.summary()


def test_check_ids_are_the_benchmarks(monkeypatch):
    # The benchmark keeps its own copy of the ids and marks a verify pass
    # failed when the reports' ids differ from it, in order.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracing

    assert propcheck.ALL_CHECK_IDS == tracing.CHECK_IDS
    assert bounds.INEQUALITY_IDS == INEQUALITY_IDS == tracing.INEQUALITY_IDS


def test_tracer_sees_every_inequality_operation(monkeypatch):
    def run():
        for ineq in INEQUALITY_IDS:
            propcheck.run_check(ineq, seed=1, samples=3)

    spans = _traced_summary(monkeypatch, run)["spans"]
    for ineq in INEQUALITY_IDS:
        assert spans.get(f"bounds.{ineq}", {}).get("calls", 0) > 0, ineq


def test_tracer_counts_psi_evaluations_per_root_solve(monkeypatch):
    monkeypatch.setattr(bounds, "_ROOT_CACHE", {})
    summary = _traced_summary(monkeypatch, lambda: propcheck.run_check("thm_alpha", seed=1, samples=3))
    from tracing import layer_values

    # Three sampled q in [0.05, 0.95], each solved from the fitted guess:
    # the midpoint residual, which also certifies the bracket.
    assert layer_values(summary)["qspecial.psi_q_root.psi_evals_per_solve"] == 1


def test_one_ln_gamma_q_span_per_ratio(monkeypatch):
    # A bound takes its log ratio from one ln_gamma_q(x, q, y=y) call; a
    # self-call inside ln_gamma_q would show as a second span, a missed
    # rebinding as none.
    summary = _traced_summary(monkeypatch, lambda: bounds.thm_mvt_bounds(3.0, 2.0, QParam(0.5)))
    assert summary["spans"]["qspecial.ln_gamma_q"]["calls"] == 1
    assert summary["counters"]["qspecial.ln_gamma_q.terms"] > 0


def test_convexity_takes_two_ln_gamma_q_spans_per_pair(monkeypatch):
    # D(x1, m) and D(x2, m), m = sqrt(x1 x2), one ratio sum each.
    q = QParam(0.5)
    batch = propcheck.sample(DomainSpec((1.0, 20.0), (1.0, 20.0), None), 3, 7)
    for function_id, aux in (("f_thm_main", None), ("g_thm_alpha", bounds.cached_psi_root(q) + 1.0)):
        summary = _traced_summary(
            monkeypatch, lambda: propcheck.check_geometric_convexity(function_id, batch, q, aux)
        )
        assert summary["spans"]["qspecial.ln_gamma_q"]["calls"] == 2 * 7, function_id


def test_tracer_counts_series_terms_below_one(monkeypatch):
    # q = 0.5 is on psi_q's n-series side (s = -ln q >= _QSERIES_S).
    q = QParam(0.5)
    assert -q.ln_q >= qspecial._QSERIES_S
    summary = _traced_summary(monkeypatch, lambda: qspecial.psi_q(0.05, q))
    from tracing import layer_values

    values = layer_values(summary)
    assert values["qcore.sum_geometric_decay.calls"] == values["qspecial.psi_q.calls"] == 1
    assert values["qcore.sum_geometric_decay.terms"] > 0
    # psi_q sums its K head terms itself and its tail through the engine;
    # K = max(0, ceil(sqrt(-ln REL_TOL / -ln q) - x)), 7 here.
    k_end = max(0, math.ceil(math.sqrt(-math.log(REL_TOL) / -math.log(0.5)) - 0.05))
    assert values["qspecial.psi_q.terms"] - values["qcore.sum_geometric_decay.terms"] == k_end == 7


def test_q_stirling_psi_q_takes_no_engine_span(monkeypatch):
    # At q = 0.9 psi_q takes its q-Stirling form: N = 10 head terms at
    # x = 0.05 and its corrections, with no call to the series engine.
    q = QParam(0.9)
    assert -q.ln_q < qspecial._QSERIES_S
    summary = _traced_summary(monkeypatch, lambda: qspecial.psi_q(0.05, q))
    from tracing import layer_values

    values = layer_values(summary)
    assert "qcore.sum_geometric_decay" not in summary["spans"]
    assert values["qcore.sum_geometric_decay.calls"] == 0
    assert values["qspecial.psi_q.calls"] == 1
    assert 10 < values["qspecial.psi_q.terms"] <= 17


def test_psi_q_m_sums_its_tail_through_the_engine(monkeypatch):
    # psi_q_m sums its K head terms itself and hands the tail to
    # sum_geometric_decay once, as psi_q does; K = 17 here, as above.
    summary = _traced_summary(monkeypatch, lambda: qspecial.psi_q_m(2, 0.05, QParam(0.9)))
    from tracing import layer_values

    values = layer_values(summary)
    assert summary["spans"]["qcore.sum_geometric_decay"]["calls"] == 1
    assert values["qspecial.psi_q_m.calls"] == 1
    assert values["qcore.sum_geometric_decay.terms"] > 0
    assert values["qspecial.psi_q_m.terms"] - values["qcore.sum_geometric_decay.terms"] == 17
