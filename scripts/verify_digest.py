"""Print SHA-256 digests of the standard ``qgamma verify --ineq all --format json``
runs and of a seeded scan of the special functions.

The standard runs are --samples 600 at seeds 1000, 1001 and 2000, and
--samples 10000 at seeds 7 and 42.  Each run is a fresh ``python -m
qgamma.cli`` process.  The full digest is taken over its JSON report with
every ``wall_time_s`` removed, so two builds that give the same verdicts,
margins and failures print the same full digests.  The verdict digest is
taken over each report's ``inequality_id``, ``n_samples``, ``n_pass`` and
``n_errors`` and the run's exit code alone, so a change that moves margins
by rounding but no verdict prints new full digests and the same verdict
digests.

The scan, in one more fresh process, draws SCAN_POINTS points from a
fixed seed: x and b log-uniform in [1e-3, 1e3], 1 - q log-uniform in
[1e-6, 0.999].  At each it calls psi_q, psi_q_m at every order of
SCAN_GROUPS and ln_gamma_q(x, q, y=b), each at the library's fixed term
cap, and records each outcome as (value, bound, terms) or as (error type,
message, partial value, estimate, terms).  It prints one digest per
group, so bit-identity of the special functions, or the one group a
change moves, shows at a glance.

The CLI digests, in that same process, run ``qgamma table`` over a fixed
sweep of each inequality (CLI_SWEEPS) in --format json and in --format
csv, and ``qgamma bounds`` at one point of it in plain and json, through
``qgamma.cli.main``.  They print one line per inequality id, so the ids
whose printed bounds a change moves show at a glance.

A change is checked by running this on both checkouts and comparing:

    python scripts/verify_digest.py              # the qgamma under ./src
    python scripts/verify_digest.py OTHER/src    # another checkout's qgamma

Each verify line is ``samples seed exit_code full_sha256 verdict_sha256``,
each CLI line ``cli id table_json_sha256 table_csv_sha256 bounds_sha256``
and each scan line ``scan group sha256``.  The five runs take about 7 s,
the CLI digests about 1 s and the scan about 65 s on a 2-vCPU host, where
its psi_q_m calls near q = 1 sum thousands of terms each (psi_q takes at
most 17 there).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

STANDARD_RUNS = ((600, 1000), (600, 1001), (600, 2000), (10000, 7), (10000, 42))


VERDICT_FIELDS = ("inequality_id", "n_samples", "n_pass", "n_errors")


def digest(src: Path, samples: int, seed: int) -> tuple[int, str, str]:
    """The exit code of one verify run, the SHA-256 of its report without
    wall times, and the SHA-256 of its verdicts and exit code alone."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-m", "qgamma.cli", "verify", "--ineq", "all", "--format", "json",
           "--samples", str(samples), "--seed", str(seed)]
    run = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    if run.returncode not in (0, 1):
        raise SystemExit(f"verify --samples {samples} --seed {seed} exited {run.returncode}:\n{run.stderr}")
    reports = json.loads(run.stdout)
    for report in reports:
        del report["wall_time_s"]
    verdicts = [run.returncode, *([report[field] for field in VERDICT_FIELDS] for report in reports)]
    return (
        run.returncode,
        hashlib.sha256(json.dumps(reports).encode()).hexdigest(),
        hashlib.sha256(json.dumps(verdicts).encode()).hexdigest(),
    )


SCAN_SEED = 2015
SCAN_POINTS = 10000
# psi_q, the orders whose head kernels are compiled, the orders above
# them, and ln_gamma_q (order None).
SCAN_GROUPS = (("psi_q", (0,)), ("psi_q_m:m<=16", (1, 2, 3, 7, 16)), ("psi_q_m:m=17,30", (17, 30)),
               ("ln_gamma_q:y=b", (None,)))


# Per inequality id: the swept flag, its range and the fixed flags of a
# CLI_STEPS-step `qgamma table` sweep inside the id's domain.  `qgamma
# bounds` takes the fixed flags and the swept flag at POINT_VALUES[id], or
# 1.25.  keckic_vasic runs past the double range, where the bounds print
# inf (null in JSON).
CLI_STEPS = 400
CLI_SWEEPS = {
    "thm_main": ("x", 1.0, 30.0, ("--y", "2.5", "--q", "0.7")),
    "cor_half_shift": ("x", 0.05, 30.0, ("--q", "0.7")),
    "thm_alpha": ("x", 0.05, 20.0, ("--y", "1.5", "--alpha", "3", "--q", "0.7")),
    "thm_mvt": ("x", 0.1, 30.0, ("--y", "0.05", "--q", "0.7")),
    "cor_mu_lambda": ("x", 0.05, 30.0, ("--mu", "1.5", "--lambda", "0.25", "--q", "0.7")),
    "cor_one_half": ("x", 0.05, 30.0, ("--q", "0.7")),
    "remark_rearranged": ("x", 0.05, 30.0, ("--q", "0.7")),
    "keckic_vasic": ("x", 1.5, 200.0, ("--y", "1.5")),
    "zhang_xu_situ": ("x", 0.05, 8.0, ("--y", "1.5")),
}
POINT_VALUES = {"keckic_vasic": "200"}


def cli_outputs() -> dict:
    """Each id's stdout of `table` (json, csv) and `bounds` (plain + json),
    from the qgamma on sys.path."""
    import contextlib
    import io

    from qgamma.cli import main as cli_main

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        if code != 0:
            raise SystemExit(f"qgamma {' '.join(argv)} exited {code}")
        return out.getvalue()

    outputs = {}
    for ineq, (var, low, high, fixed) in CLI_SWEEPS.items():
        table = ["table", "--ineq", ineq, "--var", var, "--min", repr(low), "--max", repr(high),
                 "--steps", str(CLI_STEPS), *fixed]
        bounds = ["bounds", "--ineq", ineq, f"--{var}", POINT_VALUES.get(ineq, "1.25"), *fixed]
        outputs[ineq] = (run(table + ["--format", "json"]), run(table + ["--format", "csv"]),
                         run(bounds) + run(bounds + ["--format", "json"]))
    return outputs


def print_cli_digests() -> None:
    """Print ``cli id table_json table_csv bounds`` digests for each id."""
    for ineq, texts in cli_outputs().items():
        print("cli", ineq, *(hashlib.sha256(text.encode()).hexdigest() for text in texts), flush=True)


def scan_outcomes() -> dict:
    """Each group's outcomes over the seeded scan, from the qgamma on sys.path."""
    import math
    import random

    from qgamma.errors import QGammaError
    from qgamma.qcore import QParam
    from qgamma.qspecial import ln_gamma_q, psi_q, psi_q_m

    def outcome(call):
        try:
            ev = call()
        except QGammaError as exc:
            return [type(exc).__name__, str(exc), getattr(exc, "partial_value", None),
                    getattr(exc, "error_estimate", None), getattr(exc, "terms_used", None)]
        return [ev.value, ev.error_estimate, ev.terms_used]

    rng = random.Random(SCAN_SEED)
    top = math.log10(0.999)
    outcomes = {name: [] for name, _ in SCAN_GROUPS}
    for _ in range(SCAN_POINTS):
        x, b = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)
        q = QParam(1.0 - 10.0 ** rng.uniform(-6.0, top))
        for name, orders in SCAN_GROUPS:
            for m in orders:
                if m is None:
                    outcomes[name].append(outcome(lambda: ln_gamma_q(x, q, y=b)))
                elif m == 0:
                    outcomes[name].append(outcome(lambda: psi_q(x, q)))
                else:
                    outcomes[name].append(outcome(lambda: psi_q_m(m, x, q)))
    return outcomes


def print_scan_digests() -> None:
    """Print ``scan group sha256`` for each group of the scan."""
    for name, values in scan_outcomes().items():
        print("scan", name, hashlib.sha256(json.dumps(values).encode()).hexdigest(), flush=True)


def main() -> None:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    for samples, seed in STANDARD_RUNS:
        code, full, verdicts = digest(src.resolve(), samples, seed)
        print(samples, seed, code, full, verdicts, flush=True)
    # The CLI digests and the scan import this script in a fresh process over ``src``.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src.resolve()), str(Path(__file__).resolve().parent)))}
    subprocess.run([sys.executable, "-c",
                    "import verify_digest; verify_digest.print_cli_digests(); verify_digest.print_scan_digests()"],
                   env=env, check=True)


if __name__ == "__main__":
    main()
