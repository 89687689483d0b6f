"""qgamma benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Workloads: verify_all, special_calls, table_sweep (see README.md next to
this file).  With ``--trace 0`` the metrics are the end-to-end ones, timed
with tracing off; with ``--trace 1`` they are the per-layer ones, from
traced passes alternated with untraced ones so the tracing overhead is
measured too.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Run it from
anywhere inside a qgamma checkout; it imports the package from ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

# A run keeps adding passes until --seconds have passed and it has at least
# MIN_PASSES (MIN_TRACED_PASSES traced and as many untraced under --trace 1);
# it adds none that would end past BUDGET_S, so a run finishes well inside
# its time limit.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
BUDGET_S = 140.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _require_checkout() -> None:
    """Exit non-zero unless this file sits in a qgamma checkout with sources."""
    missing = [p for p in ("src/qgamma/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        raise SystemExit(f"perfbench: not a qgamma checkout, missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    import qgamma

    if Path(qgamma.__file__).resolve().parent != ROOT / "src" / "qgamma":
        raise SystemExit(f"perfbench: imported qgamma from {qgamma.__file__}, not from this checkout")


def _p99(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def run_passes(workload, inputs: dict, seconds: float, trace: bool) -> list:
    passes = []
    start = time.perf_counter()
    need = 2 * MIN_TRACED_PASSES if trace else MIN_PASSES
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(passes) >= need:
            break
        if passes and elapsed + max(p.wall_s for p in passes[-2:]) > BUDGET_S:
            break
        # Under --trace 1, passes alternate untraced, traced, ...: in process
        # the untraced first pass fills the root cache, so every traced pass
        # sees the same warm state and its counts repeat exactly.
        traced = trace and len(passes) % 2 == 1
        result = workload.run_pass(inputs, traced)
        result.traced = traced
        passes.append(result)
    return passes


def end_to_end(passes: list, setup_times: list) -> tuple:
    wall = statistics.median(p.scaled_wall_s for p in passes)
    # Latency of each operation: its median over the passes.
    timed = [p.latencies_ns for p in passes if p.latencies_ns is not None] or [[0.0]]
    per_op_us = [statistics.median(lat) / 1000.0 for lat in zip(*timed)]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "ops_per_s": passes[0].ops / wall,
        "op_p50_us": statistics.median(per_op_us),
        "op_p99_us": _p99(per_op_us),
        "pass_ratio": None,  # filled in once every check has run
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }
    return values, len(per_op_us)


def per_layer(workload, passes: list) -> tuple:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    runs = [tracing.layer_values(p.summary) for p in traced]
    units = tracing.metric_units()
    values = {}
    for name, unit in units.items():
        if name.startswith("trace."):
            continue
        # Counts come from the first traced pass, whose inputs and starting
        # state the seed fixes; times and rates are medians over the traced
        # passes.
        if unit in ("s", "1/s"):
            values[name] = statistics.median(r[name] for r in runs)
        else:
            values[name] = runs[0][name]
    traced_wall = statistics.median(p.scaled_wall_s for p in traced)
    untraced_wall = statistics.median(p.scaled_wall_s for p in untraced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_ratio"] = (traced_wall - untraced_wall) / untraced_wall
    missing = tracing.check_nonzero(values, workload.expected_nonzero)
    return values, units, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _require_checkout()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    print(f"context: python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} cpus, workload {workload.name}, seed {args.seed}, trace {int(trace)}")

    setup_times, setup_outputs = [], []
    sx, sq = workloads.setup_inputs(args.seed)
    if not trace:
        for _ in range(workloads.SETUP_PROBES):
            seconds, out = workloads.setup_probe(sx, sq)
            setup_times.append(seconds)
            setup_outputs.append(out)

    inputs = workload.make_inputs(args.seed)
    passes = run_passes(workload, inputs, args.seconds, trace)

    attempted = sum(p.ops for p in passes) + len(setup_outputs)
    failed = sum(p.failed for p in passes) + workload.check(inputs)
    failed += workloads.check_setup(sx, sq, setup_outputs)
    correct = failed == 0

    if trace:
        values, units, missing = per_layer(workload, passes)
        if missing:
            correct = False
            sys.stderr.write(f"traced counters that should be nonzero but are not: {', '.join(missing)}\n")
        print(f"passes: {sum(p.traced for p in passes)} traced, {sum(not p.traced for p in passes)} untraced")
    else:
        values, n_latencies = end_to_end(passes, setup_times)
        values["pass_ratio"] = 1.0 - failed / attempted
        units = END_TO_END_UNITS
        print(f"passes: {len(passes)}; setup probes: {len(setup_times)}; "
              f"op latency quantiles over {n_latencies} samples")
    print("raw pass wall_s: " + " ".join(f"{p.wall_s:.4f}{'t' if p.traced else ''}" for p in passes))
    print("scaled pass wall_s: " + " ".join(f"{p.scaled_wall_s:.4f}{'t' if p.traced else ''}" for p in passes))
    for name, value in values.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
