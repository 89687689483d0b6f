"""Command-line front end: evaluation, bound inspection, certification,
root finding and CSV table emission.

Exit codes: 0 success / all checks pass, 1 certification failures,
2 usage or domain error, 3 numerical trouble (non-convergence, overflow,
bracket failure, or a verify run in which more than half of a report's
points are evaluation errors).

Values print with 17 significant digits so they re-parse to the identical
double.  Every series stops once its tail bound is at most 1e-13 of its
sum (``qcore.REL_TOL``); the series term cap is the only numeric option.
The environment variable QGAMMA_MAX_TERMS overrides the default cap; an
explicit --max-terms flag beats the environment.

verify samples each domain from the standard library's random.Random(seed)
(Mersenne Twister), so its reports are fixed by the seed, an integer >= 0;
a check that samples exits 2 on a negative seed, and every check exits 2
on --samples below 1.  Earlier releases drew from numpy's default_rng, so
the same seed now samples different points.

JSON report schema (one object per check):
  { "schema_version": 1, "inequality_id": str, "n_samples": int,
    "n_pass": int, "worst_lower_margin": float | null,
    "worst_upper_margin": float | null,
    "failures": [ { "point": {"x","y","q","aux"},
                    "lower": float, "ratio": float, "upper": float } ],
    "wall_time_s": float }
A worst margin is null when no point of the report was evaluated (every
point raised, e.g. under a small --max-terms); the plain format prints inf.

Table CSV: header ``x,lower,ratio,upper,lower_margin,upper_margin``, one
row per grid point, '\\n' newlines, '.' decimal point, no locale formatting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

from .classical import ln_gamma_classical, psi_classical
from .constants import MAX_EXP
from .errors import (
    BracketFailure,
    DomainError,
    NonConvergence,
    Overflow,
    QGammaError,
)
from .qcore import EvalConfig, Evaluation, QParam
from .qspecial import euler_gamma_q, gamma_q, ln_gamma_q, psi_q, psi_q_m, psi_q_root
from .bounds import INEQUALITIES, INEQUALITY_IDS, passes
from .propcheck import (
    ALL_CHECK_IDS,
    evaluate_point,
    linspace,
    report_to_dict,
    report_to_text,
    run_check,
)

EXIT_OK = 0
EXIT_CERT_FAILURES = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

ENV_MAX_TERMS = "QGAMMA_MAX_TERMS"

def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _eval_config(args) -> EvalConfig:
    max_terms = args.max_terms
    if max_terms is None:
        env = os.environ.get(ENV_MAX_TERMS)
        if env is None:
            return EvalConfig()
        try:
            max_terms = int(env)
        except ValueError:
            raise DomainError(f"{ENV_MAX_TERMS} must be an integer, got {env!r}") from None
    return EvalConfig(max_terms=max_terms)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {_fmt(value) if isinstance(value, float) else value}")


def _point_from_args(ineq: str, args) -> tuple:
    """The (x, y, q, aux) point of ``ineq`` from its flags; aux packs the
    slots beyond x, y and q as ``bounds.Inequality`` describes."""
    slots = INEQUALITIES[ineq].args
    missing = [name for name in slots if getattr(args, name) is None]
    if missing:
        raise DomainError(f"{ineq} requires --" + ", --".join(missing))
    extra = tuple(getattr(args, name) for name in slots if name not in ("x", "y", "q"))
    aux = extra[0] if len(extra) == 1 else extra or None
    y = args.y if "y" in slots else None
    q = args.q if "q" in slots else None
    return (args.x, y, q, aux)


def _cmd_eval(args) -> int:
    cfg = _eval_config(args)
    fn = args.fn
    if fn in ("gamma_q", "ln_gamma_q", "psi_q", "psi_q_m", "euler_gamma_q"):
        if args.q is None:
            raise DomainError(f"{fn} requires --q")
        q = QParam(args.q)
        if fn == "euler_gamma_q":
            ev = euler_gamma_q(q, cfg)
        else:
            if args.x is None:
                raise DomainError(f"{fn} requires --x")
            if fn == "gamma_q":
                ev = gamma_q(args.x, q, cfg)
            elif fn == "ln_gamma_q":
                ev = ln_gamma_q(args.x, q, cfg)
            elif fn == "psi_q":
                ev = psi_q(args.x, q, cfg)
            else:
                ev = psi_q_m(args.m, args.x, q, cfg)
    elif fn == "gamma":
        if args.x is None:
            raise DomainError("gamma requires --x")
        ln_ev = ln_gamma_classical(args.x)
        if ln_ev.value > MAX_EXP:
            raise Overflow(f"Gamma({args.x}) exceeds the double range (ln = {ln_ev.value:.6g})")
        value = math.exp(ln_ev.value)
        ev = Evaluation(value, abs(value) * ln_ev.error_estimate, ln_ev.terms_used)
    elif fn == "psi":
        if args.x is None:
            raise DomainError("psi requires --x")
        ev = psi_classical(args.x)
    else:
        raise DomainError(f"unknown function {fn!r}")
    _emit({"value": ev.value, "error_estimate": ev.error_estimate, "terms_used": ev.terms_used}, args.format)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    cfg = _eval_config(args)
    pair = evaluate_point(args.ineq, _point_from_args(args.ineq, args), cfg, force=args.force)
    payload = {
        "inequality_id": args.ineq,
        "lower": pair.lower,
        "ratio": pair.ratio,
        "upper": pair.upper,
        "lower_margin": pair.lower_margin,
        "upper_margin": pair.upper_margin,
        "strict": pair.strict,
        "satisfied": passes(pair.log_ratio - pair.log_lower, pair.log_upper - pair.log_ratio),
    }
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _eval_config(args)
    check_ids = ALL_CHECK_IDS if args.ineq == "all" else (args.ineq,)
    reports = [
        run_check(cid, seed=args.seed, samples=args.samples, cfg=cfg, corrupt_upper=args.corrupt_bounds)
        for cid in check_ids
    ]
    if args.format == "json":
        print(json.dumps([report_to_dict(r) for r in reports]))
    else:
        print("\n\n".join(report_to_text(r) for r in reports))
    if any(r.n_errors > r.n_samples / 2 for r in reports):
        return EXIT_NUMERICAL
    if any(r.n_pass < r.n_samples for r in reports):
        return EXIT_CERT_FAILURES
    return EXIT_OK


def _cmd_root(args) -> int:
    cfg = _eval_config(args)
    result = psi_q_root(QParam(args.q), cfg)
    payload = {
        "root": result.root,
        "bracket_low": result.bracket_low,
        "bracket_high": result.bracket_high,
        "residual": result.residual,
    }
    _emit(payload, args.format)
    return EXIT_OK


_TABLE_FIELDS = ("lower", "ratio", "upper", "lower_margin", "upper_margin")


def _cmd_table(args) -> int:
    cfg = _eval_config(args)
    if args.steps < 2:
        raise DomainError(f"steps must be >= 2, got {args.steps!r}")
    if not args.min < args.max:
        raise DomainError(f"requires min < max, got {args.min!r}, {args.max!r}")
    var_slot = "lam" if args.var == "lambda" else args.var
    if var_slot not in INEQUALITIES[args.ineq].args:
        raise DomainError(f"{args.ineq} has no sweep variable {args.var!r}")
    rows = []
    for value in linspace(args.min, args.max, args.steps):
        setattr(args, var_slot, value)
        pair = evaluate_point(args.ineq, _point_from_args(args.ineq, args), cfg, force=args.force)
        rows.append({"x": value, **{name: getattr(pair, name) for name in _TABLE_FIELDS}})
    if args.format == "json":
        print(json.dumps(rows))
    else:
        lines = [",".join(("x",) + _TABLE_FIELDS)]
        lines += [",".join(_fmt(v) for v in row.values()) for row in rows]
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qgamma", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("plain", "json")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--max-terms", dest="max_terms", type=int, default=None)

    def add_point_flags(p):
        for name in ("x", "y", "q", "alpha", "mu"):
            p.add_argument(f"--{name}", type=float)
        p.add_argument("--lam", "--lambda", dest="lam", type=float)
        p.add_argument("--force", action="store_true",
                       help="evaluate outside the stated hypothesis (exploratory)")

    p_eval = sub.add_parser("eval", help="evaluate one special function at a point")
    p_eval.add_argument("--fn", required=True,
                        choices=("gamma_q", "ln_gamma_q", "psi_q", "psi_q_m", "euler_gamma_q", "gamma", "psi"))
    p_eval.add_argument("--x", type=float)
    p_eval.add_argument("--q", type=float)
    p_eval.add_argument("--m", type=int, default=1)
    add_common(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_bounds = sub.add_parser("bounds", help="evaluate one inequality's bound pair at a point")
    p_bounds.add_argument("--ineq", required=True, choices=INEQUALITY_IDS)
    add_point_flags(p_bounds)
    add_common(p_bounds)
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_verify = sub.add_parser("verify", help="certify inequalities over sampled domains")
    p_verify.add_argument("--ineq", default="all",
                          help="one check id or 'all' (default: all)")
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--corrupt-bounds", dest="corrupt_bounds", action="store_true",
                          help="harness self-test: halve every upper bound, must fail")
    add_common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_root = sub.add_parser("root", help="positive root of the q-digamma")
    p_root.add_argument("--q", type=float, required=True)
    add_common(p_root)
    p_root.set_defaults(handler=_cmd_root)

    p_table = sub.add_parser("table", help="sweep one variable, emit CSV or JSON rows")
    p_table.add_argument("--ineq", required=True, choices=INEQUALITY_IDS)
    p_table.add_argument("--var", required=True, choices=("x", "y", "q", "alpha", "mu", "lam", "lambda"))
    p_table.add_argument("--min", type=float, required=True)
    p_table.add_argument("--max", type=float, required=True)
    p_table.add_argument("--steps", type=int, required=True)
    add_point_flags(p_table)
    add_common(p_table, ("csv", "json"))
    p_table.set_defaults(handler=_cmd_table)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (NonConvergence, Overflow, BracketFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QGammaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
