"""NumPy availability gate and bit-parity calibration.

The vector backend is only allowed to vectorize operations whose numpy
implementation is **bit-identical** to the Python ``math``-module
semantics the interpreter uses (:mod:`repro.runtime.values`).  Basic
IEEE-754 arithmetic (``+ - * /`` on float64) is identical by definition —
Python floats *are* doubles — but transcendental intrinsics come from two
different libm entry points and may disagree in the last ulp depending on
platform and numpy build.

Rather than hard-coding a platform-specific whitelist, this module runs a
one-time **calibration probe** at import: each candidate intrinsic is
evaluated over a few thousand deterministic sample points through both
``math.<f>`` and ``np.<f>``; only intrinsics that agree bit-for-bit on
every probe point are admitted to the numpy fast path.  A non-admitted
intrinsic still batches, but the kernel maps the interpreter's own
callable over the column instead, so a platform with a divergent
``np.sin`` stays *correct* — it just runs that call at Python speed.
(``pow`` is never a candidate: its domain-error behaviour differs
structurally, not just in rounding.)

numpy itself is an optional extra (``pip install .[vector]``).  When it
is missing, ``HAVE_NUMPY`` is ``False`` and resolving ``backend="vector"``
raises a clean :class:`~repro.runtime.errors.StreamRuntimeError`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, FrozenSet, List, Tuple

try:  # pragma: no cover - exercised through both CI lanes
    import numpy as np
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

__all__ = ["HAVE_NUMPY", "np", "exact_intrinsics", "NP_MATH"]

#: Intrinsics considered for vectorization, with their numpy counterpart
#: and the scalar reference from :mod:`repro.runtime.values`.  ``min`` /
#: ``max`` / ``abs`` / casts are handled structurally in the kernel
#: builder; ``pow`` always maps the interpreter's callable (domain errors
#: differ).
_CANDIDATES: Dict[str, Tuple[Callable[..., Any], Callable[[float], float]]] = {}

#: Probe domains chosen to cover each intrinsic's legal range densely.
_PROBE_COUNT = 4001


def _probe_points(lo: float, hi: float) -> List[float]:
    span = hi - lo
    return [lo + span * k / (_PROBE_COUNT - 1) for k in range(_PROBE_COUNT)]


def _build_candidates() -> None:
    if not HAVE_NUMPY:
        return
    wide = _probe_points(-50.0, 50.0)
    unit = _probe_points(-0.999, 0.999)
    positive = _probe_points(1e-6, 1e4)
    _CANDIDATES.update({
        "sin": (np.sin, math.sin),
        "cos": (np.cos, math.cos),
        "tan": (np.tan, math.tan),
        "atan": (np.arctan, math.atan),
        "exp": (np.exp, math.exp),
        "floor": (np.floor, lambda x: float(math.floor(x))),
        "ceil": (np.ceil, lambda x: float(math.ceil(x))),
        "round": (np.round, lambda x: float(round(x))),
        "rint": (np.rint, lambda x: float(round(x))),
    })
    _DOMAINS.update({name: wide for name in _CANDIDATES})
    _CANDIDATES["asin"] = (np.arcsin, math.asin)
    _CANDIDATES["acos"] = (np.arccos, math.acos)
    _DOMAINS["asin"] = unit
    _DOMAINS["acos"] = unit
    _CANDIDATES["sqrt"] = (np.sqrt, math.sqrt)
    _CANDIDATES["log"] = (np.log, math.log)
    _DOMAINS["sqrt"] = positive
    _DOMAINS["log"] = positive


_DOMAINS: Dict[str, List[float]] = {}
_build_candidates()


def _calibrate() -> FrozenSet[str]:
    """Return the set of intrinsics whose numpy implementation matches the
    scalar reference bit-for-bit on every probe point."""
    if not HAVE_NUMPY:
        return frozenset()
    exact = set()
    for name, (np_fn, py_fn) in _CANDIDATES.items():
        points = _DOMAINS[name]
        got = np_fn(np.asarray(points, dtype=np.float64))
        want = [py_fn(x) for x in points]
        if got.tolist() == want:
            exact.add(name)
    # atan2 is binary; probe a grid (excluding the 0/0 corner Python and
    # numpy agree on anyway, but keep it simple and well-defined).
    ys = _probe_points(-9.5, 9.5)[::40]
    xs = _probe_points(-7.5, 7.5)[::40]
    yg = np.asarray([y for y in ys for _ in xs])
    xg = np.asarray([x for _ in ys for x in xs])
    got2 = np.arctan2(yg, xg).tolist()
    want2 = [math.atan2(y, x) for y in ys for x in xs]
    if got2 == want2:
        exact.add("atan2")
    # fmod backs the float path of the `%` operator.
    a = np.asarray(_probe_points(-321.7, 298.3))
    if np.fmod(a, 7.3).tolist() == [math.fmod(x, 7.3) for x in a.tolist()]:
        exact.add("fmod")
    return frozenset(exact)


#: Intrinsics admitted to the vector fast path on this platform.
EXACT_INTRINSICS: FrozenSet[str] = _calibrate()


def exact_intrinsics() -> FrozenSet[str]:
    return EXACT_INTRINSICS


#: numpy elementwise implementations for admitted intrinsics (queried by
#: the kernel builder; absence means "fall back for this actor").
NP_MATH: Dict[str, Callable[..., Any]] = {}
if HAVE_NUMPY:
    NP_MATH.update({
        "sin": np.sin, "cos": np.cos, "tan": np.tan,
        "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
        "atan2": np.arctan2, "sqrt": np.sqrt, "exp": np.exp,
        "log": np.log, "floor": np.floor, "ceil": np.ceil,
        "round": np.round, "rint": np.rint,
    })
