"""Correctness oracle: reference streams of the scalar, un-SIMDized graphs.

Every measured op hands its output stream (``init_outputs + outputs``) to
:meth:`Oracle.check`, which passes only when the stream is a bit-identical
prefix of the app's reference stream.  SIMDized graphs emit more items per
steady iteration than the scalar graph, never different ones, so one
reference per app serves every iteration count and every backend.

The reference is built in two tiers, because the tree-walking interpreter
runs at ~10^5 items/s and the longest measured stream has 2.6 * 10^5 items:

1. the interpreter (``backend="interp"``) runs the scalar graph for the
   first ``need / INTERP_SHARE`` iterations (all of them when ``need`` is at
   most ``INTERP_FULL_MAX``) -- this is the oracle proper;
2. the closure compiler (``backend="compiled"``) runs the *scalar* graph for
   the full length, and must reproduce tier 1 bit for bit before it is
   trusted as its extension.  It shares neither the SIMDization passes nor
   the numpy batch kernels with the ops it judges.

A reference that fails the tier-2 check is dropped, which fails every op of
that app.  References grow on demand (the warm-up sweep of the first set-up
asks for every length); the time spent is accumulated in ``build_s`` so the
harness can account for it once in ``setup_s``.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional

from repro import build_schedule, execute, flatten
from repro.apps import get_benchmark
from repro.runtime.compiled import CompiledBackend

#: Scalar iterations the interpreter always runs in full.
INTERP_FULL_MAX = 8
#: Beyond that the interpreter covers one in this many iterations.
INTERP_SHARE = 16


def stream_of(result: Any) -> List[Any]:
    """The output stream the oracle judges: init-phase items, then steady."""
    return list(result.init_outputs) + list(result.outputs)


class _Reference:
    __slots__ = ("graph", "schedule", "init_items", "items_per_iter",
                 "stream", "types")

    def __init__(self, app: str) -> None:
        self.graph = flatten(get_benchmark(app))
        self.schedule = build_schedule(self.graph)
        self.init_items = 0
        self.items_per_iter = 0
        self.stream: Optional[List[Any]] = []
        self.types: List[type] = []


class Oracle:
    """Reference streams per app, grown on demand."""

    def __init__(self, machine: Any, *, corrupt: bool = False) -> None:
        self.machine = machine
        #: test hook: perturb every reference so that the smoke test can
        #: show the oracle is not vacuous.
        self.corrupt = corrupt
        self.build_s = 0.0
        #: interpreter speed per app (items/s), a per-layer metric.
        self.interp_items_per_s: Dict[str, float] = {}
        self.problems: List[str] = []
        self._refs: Dict[str, _Reference] = {}
        # A private backend: the oracle must not warm the caches of the
        # backends under measurement.
        self._compiled = CompiledBackend()

    def check(self, app: str, stream: List[Any]) -> bool:
        """True when ``stream`` is a bit-identical, type-identical prefix
        of ``app``'s reference stream."""
        ref = self._refs.get(app)
        if ref is None:
            ref = self._refs[app] = _Reference(app)
        if ref.stream is not None and len(stream) > len(ref.stream):
            start = time.perf_counter()
            self._grow(app, ref, len(stream))
            self.build_s += time.perf_counter() - start
        if ref.stream is None or not stream:
            return False
        n = len(stream)
        return (stream == ref.stream[:n]
                and list(map(type, stream)) == ref.types[:n])

    def _grow(self, app: str, ref: _Reference, items: int) -> None:
        run = dict(machine=self.machine)
        if not ref.items_per_iter:
            probe = execute(ref.graph, ref.schedule, iterations=1, **run)
            ref.init_items = len(probe.init_outputs)
            ref.items_per_iter = len(probe.outputs)
            if not ref.items_per_iter:
                self._drop(app, ref, "scalar graph produces no output")
                return
        need = max(1, math.ceil((items - ref.init_items)
                                / ref.items_per_iter))
        interp_iters = need if need <= INTERP_FULL_MAX \
            else max(INTERP_FULL_MAX, need // INTERP_SHARE)
        start = time.perf_counter()
        prefix = stream_of(execute(ref.graph, ref.schedule,
                                   iterations=interp_iters, **run))
        self.interp_items_per_s[app] = \
            len(prefix) / (time.perf_counter() - start)
        if interp_iters == need:
            full = prefix
        else:
            full = stream_of(execute(ref.graph, ref.schedule,
                                     iterations=need,
                                     backend=self._compiled, **run))
            if full[:len(prefix)] != prefix or \
                    list(map(type, full[:len(prefix)])) != \
                    list(map(type, prefix)):
                self._drop(app, ref, "compiled extension of the reference "
                                     "diverges from the interpreter prefix")
                return
        if self.corrupt:
            full[0] = full[0] + 1
        ref.stream = full
        ref.types = list(map(type, full))

    def _drop(self, app: str, ref: _Reference, why: str) -> None:
        ref.stream = None
        self.problems.append(f"{app}: {why}")
