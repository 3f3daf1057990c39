"""The vector execution backend: whole-array batch execution per actor.

``VectorBackend`` is the interpreter backend plus two batch hooks the
executor calls while it sets a run up.  Filters get the reference
:class:`~repro.runtime.interpreter.Interpreter` (it runs init bodies and
replays what a batch refuses) and movers the executor's reference
``_fire_*`` path; once a filter's init body has run, the executor asks
:meth:`VectorBackend.make_batch_filter` for an ``n``-firing batch, just
as it asks :meth:`VectorBackend.make_batch_mover` for the movers'
(through the lane maps of :mod:`repro.runtime.movers`).

A filter's batch runs a :class:`~.kernel.BatchKernel` built once per
*build key* (everything the builder reads: the work body, the tape kinds
and lane ordering, the SIMD width and SAGU flag, and the post-init
state's type structure) and kept, or its refusal kept, in the backend's
:class:`~repro.runtime.cache.KernelCache` for every later actor and
execution with that key.  The decision — ``"vector"``, ``"vector:scan"``
(the kernel runs a modular state recurrence as an int64 jump-ahead scan)
or ``"fallback: <reason>"`` (no batch: data-dependent control flow,
array indices read from the stream, ...) — is recorded per actor and
surfaced through ``ExecutionResult.vectorized`` and the obs layer.

Every batch entry point re-validates at runtime and *replays on the
interpreter* when a guard fails (unknown tape subclass, insufficient
input, type drift, bound overflow) — so outputs and counter bags stay
bit-identical to the interpreter in every case the batch path cannot
prove.  Batch closures report whether the batched path actually ran; the
executor aggregates that into ``ExecutionResult.batched_firings``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from ...graph.actor import FilterSpec
from ...graph.stream_graph import TapeEdge
from ..cache import KernelCache
from ..errors import StreamRuntimeError
from ..interpreter import ActorRuntime, Interpreter
from ..movers import BatchFn, make_batch_mover
from ..tape import NdTape
from .kernel import BatchKernel, Unvectorizable, build_batch_kernel
from .np_compat import HAVE_NUMPY

__all__ = ["VectorBackend"]


class VectorBackend:
    """Execution backend batching actor firings into array kernels."""

    name = "vector"
    #: Tapes owned by this backend's runs keep stream data in machine
    #: layout (int64/float64 ndarrays with list fallback) so batch kernels
    #: read and commit zero-copy array views instead of round-tripping
    #: Python lists through ``asarray``/``tolist`` each batch.
    tape_class = NdTape

    def __init__(self) -> None:
        if not HAVE_NUMPY:
            raise StreamRuntimeError(
                "backend 'vector' requires numpy (install the [vector] "
                "extra: pip install .[vector])")
        #: batch kernels and refusals: ``(kernel or None, vector status)``.
        self.cache = KernelCache()

    def make_filter_actor(self, runtime: ActorRuntime, spec: FilterSpec,
                          in_edge: Optional[TapeEdge],
                          out_edge: Optional[TapeEdge]) -> Interpreter:
        return Interpreter(runtime)

    def make_mover(self, run: Any, actor: Any) -> None:
        return None  # executor's reference ``_fire_*`` path

    def batch_kernel(self, runtime: ActorRuntime, spec: FilterSpec,
                     in_vector: bool) -> Tuple[Optional[BatchKernel], str]:
        """The batch kernel for ``spec``'s work body against ``runtime``
        (post-``run_init``) and its status — ``"vector"``,
        ``"vector:scan"`` or ``"fallback: <reason>"`` with no kernel —
        built on the first request for its build key."""
        key = (in_vector, runtime.simd_width,
               runtime.has_sagu, runtime.in_lane_ordered,
               runtime.out_lane_ordered, runtime.input is not None,
               runtime.output is not None,
               tuple((name, _shape(value))
                     for name, value in runtime.state.items()))

        def build() -> Tuple[Optional[BatchKernel], str]:
            try:
                kernel = build_batch_kernel(runtime, spec, in_vector)
            except Unvectorizable as exc:
                return None, f"fallback: {exc}"
            scanned = any(av.m is not None for av in kernel.aff_vars)
            return kernel, "vector:scan" if scanned else "vector"
        return self.cache.get(spec.work_body, key, build)

    def make_batch_filter(self, runtime: ActorRuntime, spec: FilterSpec,
                          in_edge: Optional[TapeEdge],
                          fire: Callable[[], None]
                          ) -> Tuple[Optional[BatchFn], str]:
        """``n``-firing batch closure for a filter whose init body has
        run, or ``None``, and its vector status; ``fire`` is its
        interpreter firing, which replays a batch the kernel refuses."""
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
        ``fire`` is its reference firing, which replays a refused batch."""
        return make_batch_mover(run, actor, fire)


def _shape(value: Any) -> Any:
    """A state value's type structure: its type, or for a list the tuple
    of its elements' structures (so list lengths are part of it too)."""
    if type(value) is list:
        return tuple(map(_shape, value))
    return type(value)

