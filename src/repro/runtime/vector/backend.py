"""The vector execution backend: whole-array batch execution per actor.

``VectorBackend`` extends :class:`~repro.runtime.compiled.CompiledBackend`
— every actor still gets the compiled closure kernels (they run the init
body and serve as the per-firing fallback) — and additionally looks up a
:class:`~.kernel.BatchKernel` per filter once its init body has run.  The
backend builds each kernel once per *build key* (everything the builder
reads: the work body, the tape kinds and lane ordering, the SIMD width
and SAGU flag, and the post-init state's type structure) and keeps it, or
the refusal, for every later actor and execution with that key — the
vector twin of the compiled backend's :class:`KernelCache`.  Actors whose
work body vectorizes execute ``n`` consecutive firings as a handful of
numpy array operations through ``run_work_batch``; actors that do not
(data-dependent control flow, array indices read from the stream, ...)
fall back to the compiled path per firing, and the decision —
``"vector"``, ``"vector:scan"`` (the kernel runs a modular state
recurrence as an int64 jump-ahead scan) or ``"fallback: <reason>"`` — is
recorded per actor and surfaced through ``ExecutionResult.vectorized``
and the obs layer.

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

from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from ...graph.actor import FilterSpec
from ...graph.stream_graph import TapeEdge
from ..errors import StreamRuntimeError
from ..compiled.backend import CompiledActor, CompiledBackend
from ..compiled.cache import KernelCache
from ..compiled.canon import exact_consts
from ..interpreter import ActorRuntime
from ..movers import BatchFn, make_batch_mover
from ..tape import NdTape
from .kernel import BatchKernel, Unvectorizable, build_batch_kernel
from .np_compat import HAVE_NUMPY

__all__ = ["VectorActor", "VectorBackend"]


class VectorActor(CompiledActor):
    """Compiled actor that additionally batches its work function.

    The batch kernel is looked up *after* ``run_init`` (vectorizability
    depends on the post-init state: types, array shapes) from the
    backend, which builds it once per build key and shares it between
    actors.  ``vector_status`` records the decision.
    """

    __slots__ = ("vector_status", "_batch_kernel", "_spec", "_in_vector",
                 "_backend")

    def __init__(self, runtime: ActorRuntime, *args: Any) -> None:
        super().__init__(runtime, *args)
        self.vector_status = "fallback: not built"
        self._batch_kernel: Optional[BatchKernel] = None
        self._spec: Optional[FilterSpec] = None
        self._in_vector = False
        self._backend: Optional[VectorBackend] = None

    def configure_vector(self, spec: FilterSpec, in_vector: bool,
                         backend: VectorBackend) -> None:
        self._spec = spec
        self._in_vector = in_vector
        self._backend = backend
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
        self._batch_kernel, self.vector_status = \
            self._backend.batch_kernel(self.rt, self._spec, self._in_vector)

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
        # Build key -> (body built from, kernel or None, vector status).
        # Keyed by content like the KernelCache, so residency grows with
        # the distinct actor bodies a process has seen, never per run.  No
        # lock: a racing duplicate build computes the same entry from the
        # same key.
        self._batch_kernels: Dict[
            Hashable, Tuple[Any, Optional[BatchKernel], str]] = {}

    def make_filter_actor(self, runtime: ActorRuntime, spec: FilterSpec,
                          in_edge: Optional[TapeEdge],
                          out_edge: Optional[TapeEdge]) -> VectorActor:
        actor = super().make_filter_actor(runtime, spec, in_edge, out_edge)
        in_vector = bool(in_edge is not None and in_edge.is_vector)
        actor.configure_vector(spec, in_vector, self)
        return actor

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
        # The builder bakes each constant in as it is: an entry built from
        # another, equal body object serves only if every constant's type
        # and sign match as well.
        if entry is None or (entry[0] is not body and
                             exact_consts(entry[0]) != exact_consts(body)):
            try:
                kernel = build_batch_kernel(runtime, spec, in_vector)
                scanned = any(av.m is not None for av in kernel.aff_vars)
                entry = (body, kernel, "vector:scan" if scanned else "vector")
            except Unvectorizable as exc:
                entry = (body, None, f"fallback: {exc}")
            self._batch_kernels[key] = entry
        return entry[1], entry[2]

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

