"""The three benchmark workloads: inputs from the seed, one pass, and checks.

Every workload exposes ``make_inputs(seed)``, ``run_pass(inputs, traced)``
returning a :class:`PassResult`, and ``check(inputs)`` returning the number
of failed operations found after the run, outside the timed region.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from speed import REF_FAST_S, reference_seconds
from tracing import CHECK_IDS, INEQUALITY_IDS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Samples per check in one verify_all pass: about 3 s on the host in
# README.md, so a run fits about ten cold passes and reports their median.
# Fewer samples let the seed move single checks: over seeds 21-30 the
# series terms of thm_alpha, thm_mvt and cor_mu_lambda spread 8-11%
# (quartile distance over median) at 300 samples and 5-6% at 600.
VERIFY_SAMPLES = 600

# special_calls: a jittered K x K grid over (log x, log(1-q)) per function,
# so every seed covers the cheap (x = 30) and costly (x = 0.05, q = 0.95)
# corners in the same proportions and the latency quantiles stay steady.
SPECIAL_GRID = 32
SPECIAL_X = (0.05, 30.0)
SPECIAL_ONE_MINUS_Q = (0.05, 0.95)
SPECIAL_FUNCTIONS = ("psi_q", "ln_gamma_q", "psi_q_m1", "psi_q_m2")
SPECIAL_ORACLE_CALLS = 16

# table_sweep: rows share a few fixed q values, so the root cache hits on
# every thm_alpha row after the first per q, and arguments >= 0.8 keep every
# series short.  THM_ALPHA_ALPHA sits above the psi_q root for every q.
TABLE_Q = (0.1, 0.5, 0.9)
TABLE_X = (1.0, 30.0)
TABLE_STEPS = 100
TABLE_INEQUALITIES = (
    "thm_main",
    "cor_half_shift",
    "thm_alpha",
    "thm_mvt",
    "cor_mu_lambda",
    "cor_one_half",
    "remark_rearranged",
)
THM_ALPHA_ALPHA = 3.0

CHILD_TIMEOUT_S = 150.0

# In-process passes time the speed reference between chunks of this many
# calls (tens of milliseconds of work), so each chunk is scaled by the host
# state it actually ran in.
CHUNK_CALLS = 256

# Per-layer counters each workload must move; a zero here means a traced
# binding was missed, not that the work got cheaper.
_SERIES_NONZERO = (
    "qcore.sum_geometric_decay.calls",
    "qcore.sum_geometric_decay.terms",
    "qcore.sum_geometric_decay.self_s",
    "qspecial.psi_q.calls",
    "qspecial.psi_q.terms",
    "qspecial.ln_gamma_q.calls",
    "qspecial.ln_gamma_q.terms",
)


@dataclass
class PassResult:
    """One pass.  ``wall_s`` is raw; ``scaled_wall_s`` and ``latencies_ns``
    are scaled to the host's fast state (see speed.py)."""

    wall_s: float
    scaled_wall_s: float
    ops: int
    failed: int
    latencies_ns: Optional[list] = None
    peak_rss_mb: Optional[float] = None
    summary: Optional[dict] = None


@dataclass
class ChildResult:
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("QGAMMA_MAX_TERMS", None)  # inputs are pinned by the benchmark
    return env


def run_child(cmd: list) -> ChildResult:
    """Run ``cmd`` to completion; wall time from spawn to reap, peak RSS of
    that process alone (from wait4), output captured in unlinked files."""
    with tempfile.TemporaryFile(dir=HERE) as out, tempfile.TemporaryFile(dir=HERE) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(wall, proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss / 1024.0)


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _oracles():
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles

    return oracles


# Oracle agreement: the library's truncation bound plus 1e-12 relative to the
# largest piece that cancels in the value (criterion 9 of the acceptance
# suite uses 1e-12 relative to the value, which has no floor where a value
# crosses zero, as psi_q does at its root).
def _agrees(value: float, error_estimate: float, oracle: float, scale: float) -> bool:
    return abs(value - oracle) <= error_estimate + 1e-12 * max(abs(oracle), scale)


def oracle_check(fn: str, x: float, qv: float, value: float, error_estimate: float, terms_used: int) -> bool:
    o = _oracles()
    terms = terms_used + 250
    if fn == "psi_q":
        return _agrees(value, error_estimate, float(o.mp_psi_q(x, qv, terms)), abs(math.log1p(-qv)))
    if fn == "ln_gamma_q":
        return _agrees(value, error_estimate, float(o.mp_ln_gamma_q(x, qv, terms)), abs((1.0 - x) * math.log1p(-qv)))
    m = int(fn[-1])
    return _agrees(value, error_estimate, float(o.mp_psi_q_m(m, x, qv, terms)), 0.0)


# --------------------------------------------------------------------------
# Set-up time: a fresh interpreter through import qgamma to one eval result
# --------------------------------------------------------------------------

SETUP_PROBES = 7


def setup_inputs(seed: int) -> tuple:
    rng = np.random.default_rng([seed, 0])
    return float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.2, 0.8))


def run_cli_child(cli_args: list, traced: bool = False) -> tuple:
    """One cold ``cli_child.py`` process.  Returns (raw seconds net of the
    reference timings, seconds scaled to the fast state, the scaled seconds
    of each ``run_check`` call, CLI output lines, child record or None,
    ChildResult)."""
    cmd = [sys.executable, str(HERE / "cli_child.py"), *(["--trace"] if traced else []), *cli_args]
    res = run_child(cmd)
    lines = res.stdout.strip().splitlines()
    try:
        child = json.loads(lines[-1]) if res.returncode == 0 else None
    except (IndexError, ValueError):
        child = None
    if not isinstance(child, dict):
        sys.stderr.write(f"qgamma {' '.join(cli_args[:1])} failed (exit {res.returncode}): {res.stderr[-2000:]}\n")
        return res.wall_s, res.wall_s, [], lines, None, res
    before, after = child["ref_before_s"], child["ref_after_s"]
    checks, between = child["check_s"], child["ref_after_check_s"]
    wall = res.wall_s - sum(before) - sum(after) - sum(between)
    # Each run_check call is scaled by the references on either side of
    # it; the rest of the process (start-up, import, parsing, output) by
    # the references before and after the whole CLI.
    refs = [statistics.median(before)] + between
    scaled_checks = [2.0 * REF_FAST_S * d / (refs[i] + refs[i + 1]) for i, d in enumerate(checks)]
    outer = 2.0 * REF_FAST_S / (statistics.median(before) + statistics.median(after))
    scaled = sum(scaled_checks) + (wall - sum(checks)) * outer
    return wall, scaled, scaled_checks, lines[:-1], child, res


def setup_probe(x: float, qv: float) -> tuple:
    """One cold `qgamma eval`; returns (scaled seconds, parsed result or None)."""
    _, scaled, _, lines, child, _ = run_cli_child(
        ["eval", "--fn", "psi_q", "--x", repr(x), "--q", repr(qv), "--format", "json"])
    try:
        return scaled, json.loads(lines[0]) if child is not None else None
    except (IndexError, ValueError):
        return scaled, None


def check_setup(x: float, qv: float, outputs: list) -> int:
    failed = 0
    for out in outputs:
        if out is None or not oracle_check("psi_q", x, qv, out["value"], out["error_estimate"], out["terms_used"]):
            failed += 1
    return failed


# --------------------------------------------------------------------------
# verify_all: cold `qgamma verify --ineq all` processes
# --------------------------------------------------------------------------

class VerifyAll:
    name = "verify_all"
    expected_nonzero = _SERIES_NONZERO + (
        "qspecial.psi_q_root.calls",
        "qspecial.psi_q_root.self_s",
        "qspecial.psi_q_root.psi_evals_per_solve",
        "classical.ln_gamma_classical.calls",
        "classical.psi_classical.calls",
        "classical.elements_computed",
        *(f"bounds.{ineq}.calls" for ineq in INEQUALITY_IDS),
        "bounds.cached_psi_root.calls",
        "bounds.root_cache.entries",
        "propcheck.sample.self_s",
        "propcheck.sample.points",
        *(f"propcheck.run_check.{cid}.wall_s" for cid in CHECK_IDS),
        "cli.main.self_s",
    )

    def make_inputs(self, seed: int) -> dict:
        return {"seed": seed, "samples": VERIFY_SAMPLES, "expected_ops": None, "passes": 0}

    def run_pass(self, inputs: dict, traced: bool) -> PassResult:
        # Pass k of a run at seed s certifies seed 1000 s + k, so a run's
        # medians cover about ten draws of the domains rather than one.
        verify_seed = 1000 * inputs["seed"] + inputs["passes"]
        inputs["passes"] += 1
        wall, scaled, check_s, lines, child, res = run_cli_child(
            ["verify", "--ineq", "all", "--samples", str(inputs["samples"]),
             "--seed", str(verify_seed), "--format", "json"], traced)
        try:
            reports = json.loads(lines[0]) if child is not None else None
        except (IndexError, ValueError):
            reports = None
        latencies = None
        if isinstance(reports, list):
            ops = sum(r["n_samples"] for r in reports)
            failed = sum(r["n_samples"] - r["n_pass"] for r in reports)
            ids = tuple(r["inequality_id"] for r in reports)
            if inputs["expected_ops"] is None:
                inputs["expected_ops"] = ops
            if ids != CHECK_IDS or ops != inputs["expected_ops"] or len(check_s) != len(reports):
                failed = max(failed, 1)
            else:
                # A point's latency: its check's time over the check's points.
                latencies = array("d")
                for r, seconds in zip(reports, check_s):
                    latencies.extend([seconds * 1e9 / r["n_samples"]] * r["n_samples"])
        else:
            ops = inputs["expected_ops"] or 1
            failed = ops
        summary = child["trace"] if child is not None else None
        return PassResult(wall, scaled, ops, failed, latencies, res.peak_rss_mb, summary)

    def check(self, inputs: dict) -> int:
        return 0  # every pass is checked as it completes


# --------------------------------------------------------------------------
# In-process workloads
# --------------------------------------------------------------------------

class _InProcess:
    def _calls(self, inputs: dict) -> list:
        raise NotImplementedError

    def run_pass(self, inputs: dict, traced: bool) -> PassResult:
        from qgamma.errors import QGammaError

        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()
        try:
            calls = self._calls(inputs)
            clock = time.perf_counter_ns
            latencies = array("d", bytes(8 * len(calls)))
            outputs = [None] * len(calls)
            failed = 0
            wall = scaled_wall = 0.0
            ref_before = reference_seconds()
            for lo in range(0, len(calls), CHUNK_CALLS):
                hi = min(lo + CHUNK_CALLS, len(calls))
                start = time.perf_counter()
                for i in range(lo, hi):
                    fn, args = calls[i]
                    t = clock()
                    try:
                        outputs[i] = fn(*args)
                    except QGammaError:
                        failed += 1
                    latencies[i] = clock() - t
                chunk = time.perf_counter() - start
                ref_after = reference_seconds()
                scale = 2.0 * REF_FAST_S / (ref_before + ref_after)
                ref_before = ref_after
                wall += chunk
                scaled_wall += chunk * scale
                for i in range(lo, hi):
                    latencies[i] *= scale
        finally:
            if tracer is not None:
                tracer.uninstall()
        summary = tracer.summary() if tracer is not None else None
        # Every pass must reproduce the first pass's results exactly; only
        # the first pass's results are kept, for the checks after the run.
        first = inputs.setdefault("first_outputs", outputs)
        if first is not outputs:
            failed += sum(1 for a, b in zip(first, outputs) if a != b)
        return PassResult(wall, scaled_wall, len(calls), failed, latencies, _self_rss_mb(), summary)

    def check(self, inputs: dict) -> int:
        """The workload's own output checks on the first pass's results."""
        return self._check_outputs(inputs, inputs["first_outputs"])


class SpecialCalls(_InProcess):
    name = "special_calls"
    expected_nonzero = _SERIES_NONZERO + ("qspecial.psi_q_m.calls", "qspecial.psi_q_m.terms")

    def make_inputs(self, seed: int) -> dict:
        from qgamma.qcore import QParam

        rng = np.random.default_rng([seed, 1])
        lx = np.log(SPECIAL_X)
        lg = np.log(SPECIAL_ONE_MINUS_Q)
        k = SPECIAL_GRID
        points = []
        for fn in SPECIAL_FUNCTIONS:
            for i in range(k):
                for j in range(k):
                    u = (i + rng.random()) / k
                    v = (j + rng.random()) / k
                    x = float(math.exp(lx[0] + u * (lx[1] - lx[0])))
                    qv = 1.0 - float(math.exp(lg[0] + v * (lg[1] - lg[0])))
                    points.append((fn, x, qv))
        order = rng.permutation(len(points))
        points = [points[i] for i in order]
        qparams = [QParam(qv) for _, _, qv in points]
        step = len(points) // SPECIAL_ORACLE_CALLS
        oracle_idx = list(range(0, len(points), step))[:SPECIAL_ORACLE_CALLS]
        return {"points": points, "qparams": qparams, "oracle_idx": oracle_idx}

    def _calls(self, inputs: dict) -> list:
        import qgamma.qspecial as qs

        fns = {
            "psi_q": (qs.psi_q, ()),
            "ln_gamma_q": (qs.ln_gamma_q, ()),
            "psi_q_m1": (qs.psi_q_m, (1,)),
            "psi_q_m2": (qs.psi_q_m, (2,)),
        }
        calls = []
        for (name, x, _), qp in zip(inputs["points"], inputs["qparams"]):
            fn, prefix = fns[name]
            calls.append((fn, prefix + (x, qp)))
        return calls

    def _check_outputs(self, inputs: dict, outputs: list) -> int:
        failed = 0
        for i in inputs["oracle_idx"]:
            fn, x, qv = inputs["points"][i]
            ev = outputs[i]
            if ev is None or not oracle_check(fn, x, qv, ev.value, ev.error_estimate, ev.terms_used):
                failed += 1
        return failed


class TableSweep(_InProcess):
    name = "table_sweep"
    expected_nonzero = _SERIES_NONZERO + (
        *(f"bounds.{ineq}.calls" for ineq in TABLE_INEQUALITIES),
        "bounds.cached_psi_root.calls",
        "bounds.root_cache.hit_ratio",
    )

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        rows = []
        lo, hi = TABLE_X
        for qv in TABLE_Q:
            for ineq in TABLE_INEQUALITIES:
                xs = [lo + (hi - lo) * (i + rng.random()) / TABLE_STEPS for i in range(TABLE_STEPS)]
                if ineq in ("thm_main", "thm_alpha"):
                    fixed = (float(rng.uniform(1.0, 1.2)),)
                elif ineq == "thm_mvt":
                    fixed = (float(rng.uniform(0.8, 0.95)),)
                elif ineq == "cor_mu_lambda":
                    lam = float(rng.uniform(0.5, 0.6))
                    fixed = (lam + float(rng.uniform(1.0, 1.1)), lam)
                else:
                    fixed = ()
                if ineq == "thm_alpha":
                    fixed = fixed + (THM_ALPHA_ALPHA,)
                rows.extend((ineq, (float(x),) + fixed, qv) for x in xs)
        return {"rows": rows}

    def _calls(self, inputs: dict) -> list:
        import qgamma.bounds as bounds
        from qgamma.qcore import QParam

        fns = {ineq: getattr(bounds, f"{ineq}_bounds") for ineq in TABLE_INEQUALITIES}

        def row(fn, args, qv):
            return fn(*args, QParam(qv))

        return [(row, (fns[ineq], args, qv)) for ineq, args, qv in inputs["rows"]]

    def _check_outputs(self, inputs: dict, outputs: list) -> int:
        from qgamma.constants import CERT_SLACK_LOG

        failed = 0
        for pair in outputs:
            if pair is None:
                continue  # already counted as a failed call
            lower_margin = pair.log_ratio - pair.log_lower
            upper_margin = pair.log_upper - pair.log_ratio
            if not (lower_margin >= -CERT_SLACK_LOG and upper_margin >= -CERT_SLACK_LOG):
                failed += 1
        return failed


WORKLOADS = {w.name: w for w in (VerifyAll(), SpecialCalls(), TableSweep())}
