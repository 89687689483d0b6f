"""Spans and counters recorded around qgamma's public functions.

The tracer lives entirely in the benchmark: ``install`` replaces each traced
function with a wrapper in every ``qgamma`` module namespace that holds it
(the package imports names directly, so patching only the defining module
would miss most calls), and ``uninstall`` puts the originals back.

A span records its name, its parent span and its start and end times; spans
stay in memory until ``summary`` folds them into per-name totals.  A span's
self time is its duration minus the durations of its direct children (calls
are sequential, so children never overlap).
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import Counter

# (defining module, function, layer) for every traced public function.
TRACED = (
    ("qgamma.qcore", "sum_geometric_decay", "qcore"),
    ("qgamma.qspecial", "psi_q", "qspecial"),
    ("qgamma.qspecial", "ln_gamma_q", "qspecial"),
    ("qgamma.qspecial", "psi_q_m", "qspecial"),
    ("qgamma.qspecial", "psi_q_root", "qspecial"),
    ("qgamma.classical", "ln_gamma_classical", "classical"),
    ("qgamma.classical", "psi_classical", "classical"),
    ("qgamma.bounds", "cached_psi_root", "bounds"),
    ("qgamma.propcheck", "sample", "propcheck"),
    ("qgamma.propcheck", "evaluate_point", "propcheck"),
    ("qgamma.propcheck", "run_check", "propcheck"),
    ("qgamma.cli", "main", "cli"),
)

# Namespaces that must hold a wrapper after install; each one imports the
# name directly, so a missed rebinding would silently drop that layer's work.
REQUIRED_REBINDINGS = (
    ("qgamma.qspecial", "sum_geometric_decay"),
    ("qgamma.bounds", "psi_q_root"),
    ("qgamma.bounds", "psi_q"),
    ("qgamma.bounds", "ln_gamma_classical"),
    ("qgamma.propcheck", "cached_psi_root"),
    ("qgamma.propcheck", "thm_alpha_bounds"),
    ("qgamma.cli", "run_check"),
)


def _qgamma_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "qgamma" or name.startswith("qgamma."))
    ]


class Tracer:
    """In-memory span log plus counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._patches: list[tuple] = []

    def wrap(self, name, fn, on_result=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``name`` may be a callable of the call arguments.  ``on_result`` sees
        (args, kwargs, result) after a normal return; an exception bumps the
        ``<name>.errors`` counter and propagates unchanged.
        """
        names, parent, start, end, stack = self.names, self.parent, self.start, self.end, self.stack
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            sid = len(names)
            names.append(span_name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                end[sid] = clock()
                stack.pop()
                counters[f"{span_name}.errors"] += 1
                raise
            end[sid] = clock()
            stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def install(self):
        """Wrap every TRACED function in every qgamma namespace holding it."""
        import qgamma.cli  # imports every traced module
        from qgamma.constants import CERT_SLACK_LOG as slack

        counters = self.counters

        def count_terms(key):
            def hook(args, kwargs, ev):
                counters[key] += ev.terms_used
            return hook

        def count_slack_pass(args, kwargs, pair):
            margin = min(pair.log_ratio - pair.log_lower, pair.log_upper - pair.log_ratio)
            needs_slack = margin <= 0.0 if pair.strict else margin < 0.0
            if needs_slack and margin >= -slack:
                counters["propcheck.slack_passes"] += 1

        def count_points(args, kwargs, batch):
            counters["propcheck.sample.points"] += len(batch.points)

        def run_check_name(args, kwargs):
            return f"propcheck.run_check.{args[0] if args else kwargs['check_id']}"

        hooks = {
            "sum_geometric_decay": count_terms("qcore.sum_geometric_decay.terms"),
            "psi_q": count_terms("qspecial.psi_q.terms"),
            "ln_gamma_q": count_terms("qspecial.ln_gamma_q.terms"),
            "psi_q_m": count_terms("qspecial.psi_q_m.terms"),
            "ln_gamma_classical": count_terms("classical.elements_computed"),
            "psi_classical": count_terms("classical.elements_computed"),
            "evaluate_point": count_slack_pass,
            "sample": count_points,
        }
        targets = [(modname, attr, f"{layer}.{attr}") for modname, attr, layer in TRACED]
        targets += [("qgamma.bounds", f"{ineq}_bounds", f"bounds.{ineq}") for ineq in INEQUALITY_IDS]

        modules = _qgamma_modules()
        for modname, attr, span_name in targets:
            original = getattr(sys.modules[modname], attr)
            name = run_check_name if attr == "run_check" else span_name
            wrapper = self.wrap(name, original, hooks.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))
        for modname, attr in REQUIRED_REBINDINGS:
            if not hasattr(getattr(sys.modules[modname], attr), "__wrapped__"):
                raise RuntimeError(f"tracing did not rebind {modname}.{attr}")

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Per-name span totals and counters, as plain JSON-able data.

        Also derives the two parent-dependent counts: psi_q calls made by a
        root solve, and root solves made on a root-cache miss.
        """
        n = len(self.names)
        if self.stack:
            raise RuntimeError("summary taken with spans still open")
        cover = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                cover[p] += self.end[sid] - self.start[sid]
        spans: dict[str, list] = {}
        counters = Counter(self.counters)
        for sid in range(n):
            name = self.names[sid]
            dur = self.end[sid] - self.start[sid]
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - cover[sid]
            p = self.parent[sid]
            if p >= 0:
                pname = self.names[p]
                if name == "qspecial.psi_q" and pname == "qspecial.psi_q_root":
                    counters["qspecial.psi_q_root.psi_evals"] += 1
                elif name == "qspecial.psi_q_root" and pname == "bounds.cached_psi_root":
                    counters["bounds.cached_psi_root.misses"] += 1
        bounds = sys.modules.get("qgamma.bounds")
        cache = getattr(bounds, "_ROOT_CACHE", None)
        counters["bounds.root_cache.entries"] = len(cache) if cache is not None else 0
        return {
            "spans": {k: {"calls": v[0], "wall_s": v[1], "self_s": v[2]} for k, v in spans.items()},
            "counters": dict(counters),
        }


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

# The benchmark's own copy of the library's ids: the metric names are part of
# the benchmark's contract and must not change when the library does.
INEQUALITY_IDS = (
    "thm_main",
    "cor_half_shift",
    "thm_alpha",
    "thm_mvt",
    "cor_mu_lambda",
    "cor_one_half",
    "remark_rearranged",
    "keckic_vasic",
    "zhang_xu_situ",
)
CHECK_IDS = INEQUALITY_IDS + (
    "convexity_f_thm_main",
    "convexity_g_thm_alpha",
    "slope_f_thm_main",
    "slope_g_thm_alpha",
    "limits",
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for key in ("calls", "terms"):
        units[f"qcore.sum_geometric_decay.{key}"] = "count"
    units["qcore.sum_geometric_decay.self_s"] = "s"
    units["qcore.sum_geometric_decay.terms_per_s"] = "1/s"
    units["qcore.sum_geometric_decay.nonconvergence"] = "count"
    for fn in ("psi_q", "ln_gamma_q", "psi_q_m"):
        units[f"qspecial.{fn}.calls"] = "count"
        units[f"qspecial.{fn}.terms"] = "count"
        units[f"qspecial.{fn}.self_s"] = "s"
    units["qspecial.psi_q_root.calls"] = "count"
    units["qspecial.psi_q_root.self_s"] = "s"
    units["qspecial.psi_q_root.wall_s"] = "s"
    units["qspecial.psi_q_root.psi_evals_per_solve"] = "count"
    units["qspecial.psi_q_root.failed"] = "count"
    for fn in ("ln_gamma_classical", "psi_classical"):
        units[f"classical.{fn}.calls"] = "count"
        units[f"classical.{fn}.self_s"] = "s"
    units["classical.elements_computed"] = "count"
    for ineq in INEQUALITY_IDS:
        units[f"bounds.{ineq}.calls"] = "count"
        units[f"bounds.{ineq}.self_s"] = "s"
    units["bounds.cached_psi_root.calls"] = "count"
    units["bounds.root_cache.hit_ratio"] = "ratio"
    units["bounds.root_cache.entries"] = "count"
    units["propcheck.sample.self_s"] = "s"
    units["propcheck.sample.points"] = "count"
    for cid in CHECK_IDS:
        units[f"propcheck.run_check.{cid}.wall_s"] = "s"
    units["propcheck.evaluate_point.errors"] = "count"
    units["propcheck.slack_passes"] = "count"
    units["cli.main.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def layer_values(summary: dict) -> dict:
    """Per-layer metric values of one traced pass (overhead excluded)."""
    spans = summary["spans"]
    counters = summary["counters"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    values = {}
    sgd = "qcore.sum_geometric_decay"
    values[f"{sgd}.calls"] = span(sgd, "calls")
    values[f"{sgd}.terms"] = counters.get(f"{sgd}.terms", 0)
    values[f"{sgd}.self_s"] = span(sgd, "self_s")
    self_s = values[f"{sgd}.self_s"]
    values[f"{sgd}.terms_per_s"] = values[f"{sgd}.terms"] / self_s if self_s > 0 else 0.0
    values[f"{sgd}.nonconvergence"] = counters.get(f"{sgd}.errors", 0)
    for fn in ("psi_q", "ln_gamma_q", "psi_q_m"):
        name = f"qspecial.{fn}"
        values[f"{name}.calls"] = span(name, "calls")
        values[f"{name}.terms"] = counters.get(f"{name}.terms", 0)
        values[f"{name}.self_s"] = span(name, "self_s")
    root = "qspecial.psi_q_root"
    solves = span(root, "calls")
    values[f"{root}.calls"] = solves
    values[f"{root}.self_s"] = span(root, "self_s")
    values[f"{root}.wall_s"] = span(root, "wall_s")
    values[f"{root}.psi_evals_per_solve"] = counters.get(f"{root}.psi_evals", 0) / solves if solves else 0.0
    values[f"{root}.failed"] = counters.get(f"{root}.errors", 0)
    for fn in ("ln_gamma_classical", "psi_classical"):
        name = f"classical.{fn}"
        values[f"{name}.calls"] = span(name, "calls")
        values[f"{name}.self_s"] = span(name, "self_s")
    values["classical.elements_computed"] = counters.get("classical.elements_computed", 0)
    for ineq in INEQUALITY_IDS:
        values[f"bounds.{ineq}.calls"] = span(f"bounds.{ineq}", "calls")
        values[f"bounds.{ineq}.self_s"] = span(f"bounds.{ineq}", "self_s")
    lookups = span("bounds.cached_psi_root", "calls")
    misses = counters.get("bounds.cached_psi_root.misses", 0)
    values["bounds.cached_psi_root.calls"] = lookups
    values["bounds.root_cache.hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    values["bounds.root_cache.entries"] = counters.get("bounds.root_cache.entries", 0)
    values["propcheck.sample.self_s"] = span("propcheck.sample", "self_s")
    values["propcheck.sample.points"] = counters.get("propcheck.sample.points", 0)
    for cid in CHECK_IDS:
        values[f"propcheck.run_check.{cid}.wall_s"] = span(f"propcheck.run_check.{cid}", "wall_s")
    values["propcheck.evaluate_point.errors"] = counters.get("propcheck.evaluate_point.errors", 0)
    values["propcheck.slack_passes"] = counters.get("propcheck.slack_passes", 0)
    values["cli.main.self_s"] = span("cli.main", "self_s")
    return values


def check_nonzero(values: dict, names) -> list[str]:
    """Names among ``names`` whose value is zero or not finite."""
    return [n for n in names if not (values.get(n, 0) > 0 and math.isfinite(values[n]))]
