"""How fast the host runs right now, from a fixed reference computation.

The shared 2-core host this benchmark was built on alternates between a fast
state and states up to about 2x slower, each lasting from a fraction of a
second to minutes.  In-process workloads time ``reference_seconds`` between
chunks of calls and scale each chunk's times by ``REF_FAST_S`` over the mean
of the two timings around it, which reports the chunk as if it had run in
the fast state.  Measured over 80 s of special_calls passes, raw pass times
ranged over 2.3x while scaled ones stayed within 1.3x.

The kernel is the benchmark's own copy of a q-digamma series loop, so it
loads the host the way the library's series engine does, and no change to
the library can change it.
"""

from __future__ import annotations

import math
import time

# Seconds one reference_seconds() call takes on the fast state of the host
# described in README.md (the fastest of several hundred timings).
REF_FAST_S = 0.005

_TERMS = 12000
_LN_Q = math.log(0.999)


def _series(x_ln_q: float, ln_q: float, max_terms: int) -> float:
    """q-digamma series sum under a geometric tail bound, as the library's
    engine sums it; at the fixed arguments below it never meets its stopping
    rule, so it always sums ``max_terms`` terms."""
    exp = math.exp

    def term(n: int) -> float:
        return exp(n * x_ln_q) / (1.0 - exp(n * ln_q))

    inv_gap = 1.0 / (1.0 - exp(x_ln_q))
    total = 0.0
    for n in range(1, max_terms + 1):
        total += term(n)
        threshold = 1e-13 * total
        if threshold < 0.0:
            threshold = -threshold
        if abs(term(n + 1)) * inv_gap <= threshold:
            break
    return total


def reference_seconds() -> float:
    """Time one run of the reference kernel."""
    start = time.perf_counter()
    _series(0.5 * _LN_Q, _LN_Q, _TERMS)
    return time.perf_counter() - start
