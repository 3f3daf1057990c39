"""The vector execution backend: whole-array batch execution per actor.

``VectorBackend`` is the compiled backend plus two batch hooks the
executor calls while it sets a run up.  Every filter still gets the
compiled closure kernels (they run the init body and serve as the
per-firing fallback); once its init body has run, the executor asks
:meth:`VectorBackend.make_batch_filter` for an ``n``-firing batch, just
as it asks :meth:`VectorBackend.make_batch_mover` for the movers'
(splitters/joiners, through the closures :mod:`repro.runtime.movers`
derives from each mover's lane map).

A filter's batch runs a :class:`~.kernel.BatchKernel` the backend builds
once per *build key* (everything the builder reads: the work body, the
tape kinds and lane ordering, the SIMD width and SAGU flag, and the
post-init state's type structure) and keeps, or keeps the refusal of,
for every later actor and execution with that key — the vector twin of
the compiled backend's :class:`~repro.runtime.compiled.KernelCache`.
The decision — ``"vector"``, ``"vector:scan"`` (the kernel runs a
modular state recurrence as an int64 jump-ahead scan) or
``"fallback: <reason>"`` (no batch: data-dependent control flow, array
indices read from the stream, ...) — is recorded per actor and surfaced
through ``ExecutionResult.vectorized`` and the obs layer.

Every batch entry point re-validates at runtime and *returns control to
the per-firing path* when a guard fails (unknown tape subclass,
insufficient input, type drift, bound overflow) — so outputs and counter
bags stay bit-identical to the interpreter in every case the batch path
cannot prove, rather than being best-effort.  Batch closures report
whether the batched path actually ran; the executor aggregates that into
``ExecutionResult.batched_firings``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from ...graph.actor import FilterSpec
from ...graph.stream_graph import TapeEdge
from ...ir.structhash import same_constants
from ..errors import StreamRuntimeError
from ..compiled.backend import CompiledBackend
from ..compiled.cache import KernelCache
from ..interpreter import ActorRuntime
from ..movers import BatchFn, make_batch_mover
from ..tape import NdTape
from .kernel import BatchKernel, Unvectorizable, build_batch_kernel
from .np_compat import HAVE_NUMPY

__all__ = ["VectorBackend"]


class VectorBackend(CompiledBackend):
    """Execution backend batching actor firings into array kernels."""

    name = "vector"
    #: Tapes owned by this backend's runs keep stream data in machine
    #: layout (int64/float64 ndarrays with list fallback) so batch kernels
    #: read and commit zero-copy array views instead of round-tripping
    #: Python lists through ``asarray``/``tolist`` each batch.
    tape_class = NdTape

    def __init__(self, cache: Optional[KernelCache] = None) -> None:
        if not HAVE_NUMPY:
            raise StreamRuntimeError(
                "backend 'vector' requires numpy (install the [vector] "
                "extra: pip install .[vector])")
        super().__init__(cache)
        # Build key -> (body built from, kernel or None, vector status).
        # Keyed by content like the KernelCache, so residency grows with
        # the distinct actor bodies a process has seen, never per run.  No
        # lock: a racing duplicate build computes the same entry from the
        # same key.
        self._batch_kernels: Dict[
            Hashable, Tuple[Any, Optional[BatchKernel], str]] = {}

    def batch_kernel(self, runtime: ActorRuntime, spec: FilterSpec,
                     in_vector: bool) -> Tuple[Optional[BatchKernel], str]:
        """The batch kernel for ``spec``'s work body against ``runtime``
        (post-``run_init``) and its status — ``"vector"``,
        ``"vector:scan"`` or ``"fallback: <reason>"`` with no kernel —
        built on the first request for its build key."""
        body = spec.work_body
        key = (body, in_vector, runtime.simd_width,
               runtime.has_sagu, runtime.in_lane_ordered,
               runtime.out_lane_ordered, runtime.input is not None,
               runtime.output is not None,
               tuple((name, _shape(value))
                     for name, value in runtime.state.items()))
        entry = self._batch_kernels.get(key)
        if entry is None or not same_constants(entry[0], body):
            try:
                kernel = build_batch_kernel(runtime, spec, in_vector)
                scanned = any(av.m is not None for av in kernel.aff_vars)
                entry = (body, kernel, "vector:scan" if scanned else "vector")
            except Unvectorizable as exc:
                entry = (body, None, f"fallback: {exc}")
            self._batch_kernels[key] = entry
        return entry[1], entry[2]

    def make_batch_filter(self, runtime: ActorRuntime, spec: FilterSpec,
                          in_edge: Optional[TapeEdge],
                          fire: Callable[[], None]
                          ) -> Tuple[Optional[BatchFn], str]:
        """``n``-firing batch closure for a filter whose init body has
        run, or ``None``, and its vector status; ``fire`` is its
        per-firing fallback, which replays a batch the kernel refuses."""
        kernel, status = self.batch_kernel(
            runtime, spec, bool(in_edge is not None and in_edge.is_vector))
        if kernel is None:
            return None, status
        run = kernel.run

        def batch(n: int) -> bool:
            if run(runtime, n):
                return True
            for _ in range(n):
                fire()
            return False
        return batch, status

    def make_batch_mover(self, run: Any, actor: Any,
                         fire: Callable[[], None]) -> Optional[BatchFn]:
        """``n``-firing batch closure for a native mover, or ``None``;
        ``fire`` is its per-firing fallback."""
        return make_batch_mover(run, actor, fire)


def _shape(value: Any) -> Any:
    """A state value's type structure: its type, or for a list the tuple
    of its elements' structures (so list lengths are part of it too)."""
    if type(value) is list:
        return tuple(map(_shape, value))
    return type(value)

