"""The compiled execution backend: kernel instantiation per actor.

``CompiledBackend`` is the object :func:`repro.runtime.executor.execute`
talks to when run with ``backend="compiled"``.  For every filter it
fetches (or compiles) the init and work kernels of the actor's bodies
from its :class:`~repro.runtime.cache.KernelCache` and wraps them in a
:class:`CompiledActor` that is API-compatible with
:class:`repro.runtime.interpreter.Interpreter` (``.rt``, ``run_init``,
``run_work``).  Splitters and joiners get the per-firing closures derived
in :mod:`repro.runtime.movers`.
"""

from __future__ import annotations

from typing import Any, Optional, Set

from ...graph.actor import FilterSpec
from ...graph.stream_graph import TapeEdge
from ...simd.analysis import actor_vector_names
from ..cache import KernelCache
from ..interpreter import ActorRuntime
from ..movers import make_mover
from .compiler import Frame, Kernel, Specialization, compile_kernel

__all__ = ["CompiledActor", "CompiledBackend"]


class CompiledActor:
    """Drop-in replacement for ``Interpreter`` backed by compiled kernels.

    The frame is refreshed at the top of every firing: locals cleared and
    the event bag / tape endpoints re-read from the runtime so executor
    re-pointing (collector tape, steady-phase counter swap) takes effect
    exactly as it does for the interpreter.
    """

    __slots__ = ("rt", "_frame", "_init_kernel", "_work_kernel")

    def __init__(self, runtime: ActorRuntime, init_kernel: Kernel,
                 work_kernel: Kernel) -> None:
        self.rt = runtime
        self._frame = Frame(runtime)
        self._init_kernel = init_kernel
        self._work_kernel = work_kernel

    def _refresh(self) -> Frame:
        frame = self._frame
        rt = self.rt
        frame.locals.clear()
        frame.events = rt.counters.events
        frame.inp = rt.input
        frame.out = rt.output
        return frame

    def run_init(self, body: Any = None) -> None:
        """Run the compiled init kernel (``body`` is accepted for interface
        parity with the interpreter and ignored — the kernel was compiled
        from the same spec)."""
        self._init_kernel.run(self._refresh())

    def run_work(self, body: Any = None) -> None:
        self._work_kernel.run(self._refresh())


class CompiledBackend:
    """Execution backend compiling actor bodies to cached closures."""

    name = "compiled"

    def __init__(self) -> None:
        self.cache = KernelCache()

    def _kernel(self, body: Any, spec: Specialization) -> Kernel:
        return self.cache.get(body, spec, lambda: compile_kernel(body, spec))

    def make_filter_actor(self, runtime: ActorRuntime, spec: FilterSpec,
                          in_edge: Optional[TapeEdge],
                          out_edge: Optional[TapeEdge]) -> CompiledActor:
        state_names = frozenset(var.name for var in spec.state)
        init_vectors, work_vectors = actor_vector_names(spec)

        def kernel(body: Any, is_work: bool, vectors: Set[str]) -> Kernel:
            return self._kernel(body, Specialization(
                is_work=is_work,
                simd_width=runtime.simd_width,
                has_sagu=runtime.has_sagu,
                in_lane_ordered=runtime.in_lane_ordered,
                out_lane_ordered=runtime.out_lane_ordered,
                state_names=state_names,
                vectors=frozenset(vectors)))
        return CompiledActor(runtime,
                             kernel(spec.init_body, False, init_vectors),
                             kernel(spec.work_body, True, work_vectors))

    def make_mover(self, run: Any, actor: Any):
        """Native splitter/joiner fast path (:mod:`repro.runtime.movers`)."""
        return make_mover(run, actor)
