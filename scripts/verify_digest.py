"""Print one SHA-256 per standard run of ``qgamma verify --ineq all --format json``.

The standard runs are --samples 600 at seeds 1000, 1001 and 2000, and
--samples 10000 at seeds 7 and 42.  Each run is a fresh ``python -m
qgamma.cli`` process; the digest is taken over its JSON report with every
``wall_time_s`` removed, so two builds that give the same verdicts, margins
and failures print the same lines.  A change meant to keep the reports
byte-identical is checked by running this on both checkouts and comparing:

    python scripts/verify_digest.py              # the qgamma under ./src
    python scripts/verify_digest.py OTHER/src    # another checkout's qgamma

Each line is ``samples seed exit_code sha256``.  All five runs take about
7 s on a 2-vCPU host.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

STANDARD_RUNS = ((600, 1000), (600, 1001), (600, 2000), (10000, 7), (10000, 42))


def digest(src: Path, samples: int, seed: int) -> tuple[int, str]:
    """The exit code of one verify run and the SHA-256 of its report without wall times."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-m", "qgamma.cli", "verify", "--ineq", "all", "--format", "json",
           "--samples", str(samples), "--seed", str(seed)]
    run = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    if run.returncode not in (0, 1):
        raise SystemExit(f"verify --samples {samples} --seed {seed} exited {run.returncode}:\n{run.stderr}")
    reports = json.loads(run.stdout)
    for report in reports:
        del report["wall_time_s"]
    return run.returncode, hashlib.sha256(json.dumps(reports).encode()).hexdigest()


def main() -> None:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    for samples, seed in STANDARD_RUNS:
        code, sha = digest(src.resolve(), samples, seed)
        print(samples, seed, code, sha, flush=True)


if __name__ == "__main__":
    main()
