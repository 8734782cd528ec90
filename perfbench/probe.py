"""A fixed pure-Python kernel that measures how fast the current core runs.

On a shared host a core's speed changes by up to 2x for seconds to minutes,
so raw times of identical work shift between runs by more than any bound a
benchmark could keep.  The kernel does the kind of work the engine's scalar
layer does (a sparse product over tuple-keyed dicts, then integer gcds) but
shares no code with the engine, so no engine change moves it.  A time t
measured while the kernel takes p seconds is reported as t * REFERENCE_S / p:
seconds on a core that runs the kernel in REFERENCE_S.
"""

from __future__ import annotations

from math import gcd
from time import perf_counter

# kernel batch time on an undisturbed core of a 2-core Xeon VM, Python 3.11
REFERENCE_S = 0.0007

_A = {(i, j): (i * 7 + j * 3) % 11 - 5 for i in range(6) for j in range(3)}
_B = {(i, j): (i * 5 + j) % 7 - 3 for i in range(5) for j in range(3)}


def _kernel() -> int:
    out: dict = {}
    for (ea, fa), ca in _A.items():
        for (eb, fb), cb in _B.items():
            key = (ea + eb, fa + fb)
            out[key] = out.get(key, 0) + ca * cb
    g = 0
    for v in out.values():
        g = gcd(g, v)
    return g


def probe() -> float:
    """Seconds for a batch of ten kernels, the faster of two tries."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        for _ in range(10):
            _kernel()
        best = min(best, perf_counter() - start)
    return best
