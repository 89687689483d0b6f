"""Command-line front end: evaluation, bound inspection, certification,
root finding and CSV table emission.

Exit codes: 0 success / all checks pass, 1 certification failures,
2 usage or domain error (such as a flag that the --fn or --ineq does not
take), 3 numerical trouble (non-convergence, overflow, bracket failure,
or a verify run in which more than half of a report's points are
evaluation errors).

Values print with 17 significant digits so they re-parse to the identical
double.  Every series stops once its tail bound is at most 1e-13 of its
sum (``qcore.REL_TOL``), within a fixed cap of 10^6 terms
(``qcore.MAX_TERMS``); no subcommand takes a numeric evaluation option,
and no environment variable sets one.

verify samples each domain from the standard library's random.Random(seed)
(Mersenne Twister), so its reports are fixed by the seed, an integer >= 0;
a check that samples exits 2 on a negative seed, and every check exits 2
on --samples below 1.

verify --corrupt-bounds halves every inequality's upper bound and must exit
1; a request holding a check with no upper bound (convexity, slope, limits,
and so --ineq all) exits 2, naming those checks, before any check runs.

`bounds` and `table` print each pair's lower, ratio and upper as the
exponentials of its log fields, computed here, where they are printed: a
``bounds.BoundPair`` holds the logs and the log margins alone.  A log whose
exponential overflows the doubles (above about 709.78) prints as inf.

Every subcommand writes its output through one writer.  Once the reader
has closed the pipe, the rest of the output is dropped and the subcommand
still exits with its own code.  JSON holds null for each float that is not
finite: a bound beyond the double range in `bounds` and `table`, or a
worst margin of a report none of whose points evaluated.  Plain and CSV
print inf and nan.

JSON report schema (one object per check):
  { "schema_version": 2, "inequality_id": str, "n_samples": int,
    "n_pass": int, "n_errors": int, "worst_lower_margin": float | null,
    "worst_upper_margin": float | null,
    "failures": [ { "point": dict, "lower_margin": float | null,
                    "upper_margin": float | null }
                | { "point": dict, "error": str } ],
    "wall_time_s": float }
A failure holds its point (limits: {"track","q"}; convexity and slope: the
pair as x, y, the run's q and aux) and its log margins (both the one
margin for convexity, slope and limits), or the error it raised, which
n_errors counts past the 100 failures kept.  A point's "aux" is alpha for
thm_alpha and the g checks; null otherwise and where a root solve raised.

Table CSV: header ``<var>,lower,ratio,upper,lower_margin,upper_margin``,
the first column named by --var as given (``x`` for --var x, ``lambda``
for --var lambda), one row per grid point, '\\n' newlines, '.' decimal
point, no locale formatting.  A JSON row names its swept value the same.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

from .classical import ln_gamma_classical, psi_classical
from .errors import BracketFailure, DomainError, NonConvergence, Overflow, QGammaError
from .qcore import QParam
from .qspecial import _exp_evaluation, euler_gamma_q, gamma_q, ln_gamma_q, psi_q, psi_q_m, psi_q_root
from .bounds import INEQUALITIES, INEQUALITY_IDS, passes
from .propcheck import (ALL_CHECK_IDS, EXTRA_CHECK_IDS, _json_ready, evaluate_point, linspace, report_to_dict,
                        report_to_text, run_check)

EXIT_OK = 0
EXIT_CERT_FAILURES = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# Each `eval --fn` function with the flags it takes, in argument order.
# --m, taken by psi_q_m alone, defaults to 1.
_EVAL_FUNCTIONS = {
    "gamma_q": (gamma_q, ("x", "q")),
    "ln_gamma_q": (ln_gamma_q, ("x", "q")),
    "psi_q": (psi_q, ("x", "q")),
    "psi_q_m": (psi_q_m, ("m", "x", "q")),
    "euler_gamma_q": (euler_gamma_q, ("q",)),
    "gamma": (lambda x: _exp_evaluation(ln_gamma_classical(x), f"Gamma({x})"), ("x",)),
    "psi": (psi_classical, ("x",)),
}
_EVAL_FLAGS = tuple(dict.fromkeys(flag for _, flags in _EVAL_FUNCTIONS.values() for flag in flags))

# The point flags of `bounds` and `table`: every slot of an inequality, in
# order of first use, with --lambda an alias of --lam.
_SLOTS = tuple(dict.fromkeys(slot for ineq in INEQUALITIES.values() for slot in ineq.args))
_SLOT_ALIASES = {"lambda": "lam"}

# The bound pair fields that `bounds` prints and each `table` row holds.
_PAIR_FIELDS = ("lower", "ratio", "upper", "lower_margin", "upper_margin")


def _exp_or_inf(z: float) -> float:
    """e^z, or inf where math.exp overflows."""
    try:
        return math.exp(z)
    except OverflowError:
        return math.inf


def _pair_fields(pair) -> dict:
    """The _PAIR_FIELDS of a BoundPair: the exponentials of its three logs,
    inf for one beyond the doubles, then its two log margins."""
    values = [_exp_or_inf(z) for z in (pair.log_lower, pair.log_ratio, pair.log_upper)]
    return dict(zip(_PAIR_FIELDS, (*values, pair.lower_margin, pair.upper_margin)))


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write(text: str) -> None:
    """The one writer of every subcommand's output: ``text`` and a newline.
    Once the reader has closed the pipe, stdout points at os.devnull, so
    neither a later write nor the flush at exit raises."""
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_json(payload) -> None:
    """JSON output: null for every float that is not finite."""
    _write(json.dumps(_json_ready(payload)))


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        _write_json(payload)
    else:
        _write("\n".join(f"{key}: {_fmt(value) if isinstance(value, float) else value}"
                         for key, value in payload.items()))


def _require_flags(name: str, flags, offered, args) -> None:
    """Raise DomainError naming each of ``flags`` not given, or each given flag of ``offered`` outside them."""
    missing = [flag for flag in flags if getattr(args, flag) is None]
    if missing:
        raise DomainError(f"{name} requires --" + ", --".join(missing))
    extra = [flag for flag in offered if flag not in flags and getattr(args, flag) is not None]
    if extra:
        raise DomainError(f"{name} does not take --" + ", --".join(extra))


def _point(ineq: str, values: dict) -> tuple:
    """The (x, y, q, aux) point of ``ineq`` from its slot values; aux packs
    the slots beyond x, y and q as ``bounds.Inequality`` describes."""
    extra = tuple(values[name] for name in INEQUALITIES[ineq].args if name not in ("x", "y", "q"))
    aux = extra[0] if len(extra) == 1 else extra or None
    return (values.get("x"), values.get("y"), values.get("q"), aux)


def _point_from_args(ineq: str, args) -> tuple:
    """The point of ``ineq`` from its flags, each of them one of its slots."""
    _require_flags(ineq, INEQUALITIES[ineq].args, _SLOTS, args)
    return _point(ineq, vars(args))


def _cmd_eval(args) -> int:
    fn, flags = _EVAL_FUNCTIONS[args.fn]
    if "m" in flags and args.m is None:
        args.m = 1
    _require_flags(args.fn, flags, _EVAL_FLAGS, args)
    values = [QParam(args.q) if flag == "q" else getattr(args, flag) for flag in flags]
    ev = fn(*values)
    _emit(ev._asdict(), args.format)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    pair = evaluate_point(args.ineq, _point_from_args(args.ineq, args), force=args.force)
    payload = {
        "inequality_id": args.ineq,
        **_pair_fields(pair),
        "strict": pair.strict,
        "satisfied": passes(pair.lower_margin, pair.upper_margin),
    }
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    check_ids = ALL_CHECK_IDS if args.ineq == "all" else (args.ineq,)
    unbounded = [cid for cid in check_ids if cid in EXTRA_CHECK_IDS]
    if args.corrupt_bounds and unbounded:
        raise DomainError("--corrupt-bounds: no upper bound to halve in " + ", ".join(unbounded))
    reports = [
        run_check(cid, seed=args.seed, samples=args.samples, corrupt_upper=args.corrupt_bounds)
        for cid in check_ids
    ]
    if args.format == "json":
        _write_json([report_to_dict(r) for r in reports])
    else:
        _write("\n\n".join(report_to_text(r) for r in reports))
    if any(r.n_errors > r.n_samples / 2 for r in reports):
        return EXIT_NUMERICAL
    if any(r.n_pass < r.n_samples for r in reports):
        return EXIT_CERT_FAILURES
    return EXIT_OK


def _cmd_root(args) -> int:
    _emit(psi_q_root(QParam(args.q))._asdict(), args.format)
    return EXIT_OK


def _cmd_table(args) -> int:
    if args.steps < 2:
        raise DomainError(f"steps must be >= 2, got {args.steps!r}")
    if not args.min < args.max:
        raise DomainError(f"requires min < max, got {args.min!r}, {args.max!r}")
    slots = INEQUALITIES[args.ineq].args
    var_slot = _SLOT_ALIASES.get(args.var, args.var)
    if var_slot not in slots:
        raise DomainError(f"{args.ineq} has no sweep variable {args.var!r}")
    if getattr(args, var_slot) is not None:
        raise DomainError(f"--var {args.var} sweeps --{args.var}; drop that flag, which the sweep would overwrite")
    fixed = [slot for slot in slots if slot != var_slot]
    _require_flags(args.ineq, fixed, _SLOTS, args)
    values = {slot: getattr(args, slot) for slot in fixed}
    rows = []
    for value in linspace(args.min, args.max, args.steps):
        pair = evaluate_point(args.ineq, _point(args.ineq, {**values, var_slot: value}), force=args.force)
        rows.append({args.var: value, **_pair_fields(pair)})
    if args.format == "json":
        _write_json(rows)
    else:
        lines = [",".join((args.var,) + _PAIR_FIELDS)]
        lines += [",".join(_fmt(v) for v in row.values()) for row in rows]
        _write("\n".join(lines))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qgamma", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, formats=("plain", "json")):
        p.add_argument("--format", choices=formats, default=formats[0])

    def add_point_flags(p):
        for slot in _SLOTS:
            aliases = [f"--{alias}" for alias, target in _SLOT_ALIASES.items() if target == slot]
            p.add_argument(f"--{slot}", *aliases, dest=slot, type=float)
        p.add_argument("--force", action="store_true",
                       help="evaluate outside the stated hypothesis (exploratory)")

    p_eval = sub.add_parser("eval", help="evaluate one special function at a point")
    p_eval.add_argument("--fn", required=True, choices=tuple(_EVAL_FUNCTIONS))
    p_eval.add_argument("--x", type=float)
    p_eval.add_argument("--q", type=float)
    p_eval.add_argument("--m", type=int)
    add_format(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_bounds = sub.add_parser("bounds", help="evaluate one inequality's bound pair at a point")
    p_bounds.add_argument("--ineq", required=True, choices=INEQUALITY_IDS)
    add_point_flags(p_bounds)
    add_format(p_bounds)
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_verify = sub.add_parser("verify", help="certify inequalities over sampled domains")
    p_verify.add_argument("--ineq", default="all",
                          help="one check id or 'all' (default: all)")
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--corrupt-bounds", dest="corrupt_bounds", action="store_true",
                          help="harness self-test: halve every upper bound, must fail")
    add_format(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_root = sub.add_parser("root", help="positive root of the q-digamma")
    p_root.add_argument("--q", type=float, required=True)
    add_format(p_root)
    p_root.set_defaults(handler=_cmd_root)

    p_table = sub.add_parser("table", help="sweep one variable, emit CSV or JSON rows")
    p_table.add_argument("--ineq", required=True, choices=INEQUALITY_IDS)
    p_table.add_argument("--var", required=True, choices=_SLOTS + tuple(_SLOT_ALIASES))
    p_table.add_argument("--min", type=float, required=True)
    p_table.add_argument("--max", type=float, required=True)
    p_table.add_argument("--steps", type=int, required=True)
    add_point_flags(p_table)
    add_format(p_table, ("csv", "json"))
    p_table.set_defaults(handler=_cmd_table)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except QGammaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, (NonConvergence, Overflow, BracketFailure)) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
