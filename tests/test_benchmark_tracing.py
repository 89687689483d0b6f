"""The benchmark's per-layer tracer must still see every inequality operation.

``perfbench/tracing.py`` rebinds functions by their module-level names, so an
operation reached through a reference captured at import time would drop out
of the traced benchmark without any error.  This runs a tiny traced pass per
inequality and requires a span for each ``*_bounds`` operation.
"""

import sys
from pathlib import Path

import qgamma.propcheck as propcheck
from qgamma.bounds import INEQUALITY_IDS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_sees_every_inequality_operation(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        for ineq in INEQUALITY_IDS:
            propcheck.run_check(ineq, seed=1, samples=3)
    finally:
        tracer.uninstall()
    spans = tracer.summary()["spans"]
    for ineq in INEQUALITY_IDS:
        assert spans.get(f"bounds.{ineq}", {}).get("calls", 0) > 0, ineq
