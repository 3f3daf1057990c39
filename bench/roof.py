"""Hardware roof: bare-numpy copy / scale / add / triad.

The same element count and dtype (float64) as the large ``steady_stream``
ops, with STREAM's traffic accounting -- (reads + writes) x 8 bytes per
element: 2 words for copy and scale, 3 for add and triad.  Best of
``TRIES`` after one warm-up pass, McCalpin's NTIMES discipline: the roof is
what the machine can do, so the minimum is the estimate and the other tries
only show its noise.  A drift here means the machine changed, not the code.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

import numpy as np

#: STREAM's scalar (the apps' ``SCALE_Q``).
Q = 3.0
TRIES = 10
#: 8-byte words moved per element.
WORDS = {"copy": 2, "scale": 2, "add": 3, "triad": 3}


def _kernels(n: int) -> Dict[str, Tuple[Callable[[], None], np.ndarray,
                                        Callable[[], np.ndarray]]]:
    """kernel -> (run, destination, expected value of the destination)."""
    a = np.arange(n, dtype=np.float64) * 0.5
    b = a + 1.0
    out = {k: np.empty(n, dtype=np.float64) for k in WORDS}
    scratch = np.empty(n, dtype=np.float64)

    def triad() -> None:
        np.multiply(b, Q, out=scratch)
        np.add(a, scratch, out=out["triad"])

    return {
        "copy": (lambda: np.copyto(out["copy"], a), out["copy"], lambda: a),
        "scale": (lambda: np.multiply(a, Q, out=out["scale"]), out["scale"],
                  lambda: a * Q),
        "add": (lambda: np.add(a, b, out=out["add"]), out["add"],
                lambda: a + b),
        "triad": (triad, out["triad"], lambda: a + Q * b),
    }


def measure(elements: int, tries: int = TRIES) -> Tuple[Dict[str, float], int]:
    """``({kernel: MB/s}, parity failures)`` at ``elements`` float64s."""
    rates: Dict[str, float] = {}
    failures = 0
    for name, (run, dest, expected) in _kernels(elements).items():
        run()                                   # warm-up: page in, allocate
        best = float("inf")
        for _ in range(tries):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        if not np.array_equal(dest, expected()):
            failures += 1
        rates[name] = WORDS[name] * 8 * elements / best / 1e6
    return rates, failures
