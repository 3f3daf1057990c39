"""The vector execution backend: whole-array batch execution per actor.

``VectorBackend`` extends :class:`~repro.runtime.compiled.CompiledBackend`
— every actor still gets the compiled closure kernels (they run the init
body and serve as the per-firing fallback) — and additionally attempts to
build a :class:`~.kernel.BatchKernel` per filter once its init body has
run.  Actors whose work body vectorizes execute ``n`` consecutive firings
as a handful of numpy array operations through ``run_work_batch``; actors
that do not (state outside the modular-affine class ``s ← (a·s + c) % m``,
data-dependent control flow, inexact intrinsics, ...) fall back to the
compiled path per firing, and the decision — ``"vector"``,
``"vector:scan"`` (the kernel runs a modular state recurrence as an int64
jump-ahead scan) or ``"fallback: <reason>"`` — is recorded per actor and
surfaced through ``ExecutionResult.vectorized`` and the obs layer.

Movers (splitters/joiners) batch too, through the ``n``-firing closures
:mod:`repro.runtime.movers` derives from each mover's lane map.

Every batch entry point re-validates at runtime and *returns control to
the per-firing path* when a guard fails (unknown tape subclass,
insufficient input, type drift, bound overflow) — so outputs and counter
bags stay bit-identical to the interpreter in every case the batch path
cannot prove, rather than being best-effort.  Batch closures report
whether the batched path actually ran; the executor aggregates that into
``ExecutionResult.batched_firings``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ...graph.actor import FilterSpec
from ...graph.stream_graph import TapeEdge
from ..errors import StreamRuntimeError
from ..compiled.backend import CompiledActor, CompiledBackend
from ..compiled.cache import KernelCache
from ..interpreter import ActorRuntime
from ..movers import BatchFn, make_batch_mover
from ..tape import NdTape
from .kernel import BatchKernel, Unvectorizable, build_batch_kernel
from .np_compat import HAVE_NUMPY

__all__ = ["VectorActor", "VectorBackend"]


class VectorActor(CompiledActor):
    """Compiled actor that additionally batches its work function.

    The batch kernel is built lazily *after* ``run_init`` (vectorizability
    depends on the post-init state: types, array shapes), exactly once per
    actor instance.  ``vector_status`` records the decision.
    """

    __slots__ = ("vector_status", "_batch_kernel", "_spec", "_in_vector")

    def __init__(self, runtime: ActorRuntime, *args: Any) -> None:
        super().__init__(runtime, *args)
        self.vector_status = "fallback: not built"
        self._batch_kernel: Optional[BatchKernel] = None
        self._spec: Optional[FilterSpec] = None
        self._in_vector = False

    def configure_vector(self, spec: FilterSpec, in_vector: bool) -> None:
        self._spec = spec
        self._in_vector = in_vector
        if not spec.init_body:
            # No init body means the executor never calls run_init: the
            # state is already final, build now.
            self._build()

    def run_init(self, body: Any = None) -> None:
        super().run_init(body)
        if self._spec is not None and self._batch_kernel is None \
                and self.vector_status == "fallback: not built":
            self._build()

    def _build(self) -> None:
        try:
            self._batch_kernel = build_batch_kernel(
                self.rt, self._spec, self._in_vector)
            scanned = any(av.m is not None
                          for av in self._batch_kernel.aff_vars)
            self.vector_status = "vector:scan" if scanned else "vector"
        except Unvectorizable as exc:
            self._batch_kernel = None
            self.vector_status = f"fallback: {exc}"

    def run_work_batch(self, n: int) -> bool:
        """Fire ``n`` times: one array batch when possible, else ``n``
        compiled firings (bit-identical either way).  Returns whether the
        batched path actually ran."""
        kernel = self._batch_kernel
        if kernel is not None and kernel.run(self.rt, n):
            return True
        run_work = self.run_work
        for _ in range(n):
            run_work()
        return False


class VectorBackend(CompiledBackend):
    """Execution backend batching actor firings into array kernels."""

    name = "vector"
    _actor_class = VectorActor
    #: The executor may merge all steady iterations into one giant phase
    #: (after an admissibility check) so batch kernels see maximal ``n``.
    coalesce_iterations = True
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

    def make_filter_actor(self, runtime: ActorRuntime, spec: FilterSpec,
                          in_edge: Optional[TapeEdge],
                          out_edge: Optional[TapeEdge]) -> VectorActor:
        actor = super().make_filter_actor(runtime, spec, in_edge, out_edge)
        in_vector = bool(in_edge is not None and in_edge.is_vector)
        actor.configure_vector(spec, in_vector)
        return actor

    def make_batch_mover(self, run: Any, actor: Any,
                         fire: Callable[[], None]) -> Optional[BatchFn]:
        """``n``-firing batch closure for a native mover, or ``None``;
        ``fire`` is its per-firing fallback."""
        return make_batch_mover(run, actor, fire)
