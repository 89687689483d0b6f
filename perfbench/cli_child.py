"""One cold benchmark pass: the qgamma CLI in this fresh interpreter.

    python3 perfbench/cli_child.py [--trace] verify --ineq all --samples 600 --seed 1 --format json

Times the speed reference (speed.py) three times before and three times
after the CLI runs, and once after each ``run_check`` call, with the
duration of each such call.  With ``--trace`` it installs the benchmark
tracer around the CLI, and each reference timing inside it is a span of its
own, so it stays out of ``cli.main``'s self time.  Standard output is the
CLI's own output followed by one JSON line holding those timings and the
trace summary (null when untraced); the exit code is the CLI's.  ``src``
must be on PYTHONPATH.
"""

import json
import sys
import time

import qgamma.cli

from speed import reference_seconds
from tracing import Tracer

REF_REPEATS = 3

if __name__ == "__main__":
    argv = sys.argv[1:]
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    before = [reference_seconds() for _ in range(REF_REPEATS)]
    checks, between = [], []
    tracer = Tracer()
    reference = reference_seconds
    if traced:
        tracer.install()
        reference = tracer.wrap("perfbench.reference", reference_seconds)
    run_check = qgamma.cli.run_check

    def run_check_then_reference(*args, **kwargs):
        start = time.perf_counter()
        try:
            return run_check(*args, **kwargs)
        finally:
            checks.append(time.perf_counter() - start)
            between.append(reference())

    qgamma.cli.run_check = run_check_then_reference
    try:
        code = qgamma.cli.main(argv)
    finally:
        qgamma.cli.run_check = run_check
        tracer.uninstall()
    after = [reference_seconds() for _ in range(REF_REPEATS)]
    print(json.dumps({
        "ref_before_s": before,
        "ref_after_s": after,
        "check_s": checks,
        "ref_after_check_s": between,
        "trace": tracer.summary() if traced else None,
    }))
    sys.exit(code)
