"""The benchmark's own gate on tiny traced passes of each workload.

``perfbench/run.py --trace 1`` reports ``correct: false`` when a per-layer
counter that its workload lists in ``expected_nonzero`` reads zero: work
moved off a traced name reads as no work.  These run that gate,
``tracing.check_nonzero``, on a few points of each workload, built as the
workload builds them, so such a move fails here as well.  ``perfbench`` is
imported read-only, as in ``test_benchmark_tracing.py``.
"""

import sys
from pathlib import Path

import pytest

import qgamma.bounds as bounds
import qgamma.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 3


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``tracing`` and ``workloads`` modules, with an empty
    root cache, so that every pass solves its roots as a cold run does."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(bounds, "_ROOT_CACHE", {})
    import tracing
    import workloads

    return tracing, workloads


def _missing(tracing, workload, run):
    """The counters of ``workload.expected_nonzero`` that read zero after
    ``run`` under the benchmark's tracer."""
    tracer = tracing.Tracer()
    try:
        tracer.install()
        run()
    finally:
        tracer.uninstall()
    return tracing.check_nonzero(tracing.layer_values(tracer.summary()), workload.expected_nonzero)


def _call_all(workload, inputs):
    # The calls are built inside the traced pass, as run_pass builds them,
    # so that they reach the functions through the tracer's wrappers.
    for fn, args in workload._calls(inputs):
        fn(*args)


def test_verify_all(bench, capsys):
    tracing, workloads = bench
    argv = ["verify", "--ineq", "all", "--samples", "3", "--seed", str(SEED), "--format", "json"]
    codes = []
    assert _missing(tracing, workloads.WORKLOADS["verify_all"], lambda: codes.append(cli.main(argv))) == []
    assert codes == [0]
    capsys.readouterr()


def test_special_calls(bench):
    tracing, workloads = bench
    workload = workloads.WORKLOADS["special_calls"]
    inputs = workload.make_inputs(SEED)
    few = {"points": inputs["points"][:40], "qparams": inputs["qparams"][:40]}
    assert {fn for fn, _, _ in few["points"]} == set(workloads.SPECIAL_FUNCTIONS)
    assert _missing(tracing, workload, lambda: _call_all(workload, few)) == []


def test_table_sweep(bench):
    tracing, workloads = bench
    workload = workloads.WORKLOADS["table_sweep"]
    rows = workload.make_inputs(SEED)["rows"]
    steps = workloads.TABLE_STEPS
    # The first three rows of each (q, inequality) block: thm_alpha's second
    # and third rows at each q hit the root cache.
    few = {"rows": [row for start in range(0, len(rows), steps) for row in rows[start:start + 3]]}
    assert len(few["rows"]) == 3 * len(workloads.TABLE_Q) * len(workloads.TABLE_INEQUALITIES)
    assert _missing(tracing, workload, lambda: _call_all(workload, few)) == []
