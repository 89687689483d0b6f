"""Print two SHA-256 digests per standard run of ``qgamma verify --ineq all --format json``.

The standard runs are --samples 600 at seeds 1000, 1001 and 2000, and
--samples 10000 at seeds 7 and 42.  Each run is a fresh ``python -m
qgamma.cli`` process.  The full digest is taken over its JSON report with
every ``wall_time_s`` removed, so two builds that give the same verdicts,
margins and failures print the same full digests.  The verdict digest is
taken over each report's ``inequality_id``, ``n_samples``, ``n_pass`` and
``n_errors`` and the run's exit code alone, so a change that moves margins
by rounding but no verdict prints new full digests and the same verdict
digests.  A change is checked by running this on both checkouts and
comparing:

    python scripts/verify_digest.py              # the qgamma under ./src
    python scripts/verify_digest.py OTHER/src    # another checkout's qgamma

Each line is ``samples seed exit_code full_sha256 verdict_sha256``.  All
five runs take about 7 s on a 2-vCPU host.
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


def main() -> None:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    for samples, seed in STANDARD_RUNS:
        code, full, verdicts = digest(src.resolve(), samples, seed)
        print(samples, seed, code, full, verdicts, flush=True)


if __name__ == "__main__":
    main()
