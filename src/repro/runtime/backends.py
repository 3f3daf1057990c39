"""Execution backend selection.

An execution backend decides *how* actor bodies run; the executor owns
*when* they run (scheduling, tapes, phases) regardless of backend.  A
backend provides two hooks:

``make_filter_actor(runtime, spec, in_edge, out_edge)``
    Return an object with ``.rt`` (the :class:`ActorRuntime`),
    ``run_init(body)`` and ``run_work(body)`` — the interface the executor
    fires filters through.

``make_mover(run, actor)``
    Optionally return a zero-argument firing closure for a native mover
    (splitter/joiner); ``None`` falls back to the executor's generic path.

A batching backend adds two more, each handed the per-firing closure
``fire`` it falls back to: ``make_batch_filter(runtime, spec, in_edge,
fire)`` (called once the filter's init body has run) returns ``(batch or
None, vector status)``, and ``make_batch_mover(run, actor, fire)``
returns a batch or ``None``.  A batch ``fn(n)`` is equivalent to ``n``
firings and returns whether the batched path actually ran.

Three backends exist: ``"interp"`` (the tree-walking
:class:`~repro.runtime.interpreter.Interpreter`; the reference semantics),
``"compiled"`` (:class:`~repro.runtime.compiled.CompiledBackend`; IR
compiled once to Python closures with cached kernels and batched counter
charging), and ``"vector"``
(:class:`~repro.runtime.vector.VectorBackend`; the interpreter plus numpy
whole-array batch kernels over many firings at once — an actor whose work
body is not provably vectorizable replays on the interpreter — requires
the optional numpy dependency, ``pip install .[vector]``).  All produce
bit-identical outputs and performance counters — the differential test
suite enforces this over every registry application.

``resolve_backend`` maps the string names to backend objects.  The
``"compiled"`` and ``"vector"`` strings resolve to process-wide
singletons so repeated ``execute`` calls share one kernel cache (closure
kernels on ``"compiled"``, batch kernels on ``"vector"``); pass a
fresh backend instance instead when isolated cache statistics are needed.
"""

from __future__ import annotations

from typing import Any, Optional

from ..graph.actor import FilterSpec
from ..graph.stream_graph import TapeEdge
from .errors import StreamRuntimeError
from .interpreter import ActorRuntime, Interpreter

__all__ = ["InterpreterBackend", "resolve_backend"]


class InterpreterBackend:
    """Reference backend: one tree-walking interpreter per filter."""

    name = "interp"

    def make_filter_actor(self, runtime: ActorRuntime, spec: FilterSpec,
                          in_edge: Optional[TapeEdge],
                          out_edge: Optional[TapeEdge]) -> Interpreter:
        return Interpreter(runtime)

    def make_mover(self, run: Any, actor: Any) -> None:
        return None  # executor's generic native path


_COMPILED_SINGLETON: Any = None
_VECTOR_SINGLETON: Any = None


def resolve_backend(backend: Any) -> Any:
    """Resolve ``backend`` to a backend object.

    Accepts ``"interp"``, ``"compiled"``, ``"vector"``, or any object
    already implementing the backend interface (returned unchanged).
    """
    if not isinstance(backend, str):
        return backend
    if backend == "interp":
        return InterpreterBackend()
    if backend == "compiled":
        global _COMPILED_SINGLETON
        if _COMPILED_SINGLETON is None:
            from .compiled import CompiledBackend
            _COMPILED_SINGLETON = CompiledBackend()
        return _COMPILED_SINGLETON
    if backend == "vector":
        from .vector.np_compat import HAVE_NUMPY
        if not HAVE_NUMPY:
            raise StreamRuntimeError(
                "backend 'vector' requires numpy, which is not installed "
                "(pip install .[vector])")
        global _VECTOR_SINGLETON
        if _VECTOR_SINGLETON is None:
            from .vector import VectorBackend
            _VECTOR_SINGLETON = VectorBackend()
        return _VECTOR_SINGLETON
    raise StreamRuntimeError(
        f"unknown backend {backend!r} (expected 'interp', 'compiled' or "
        f"'vector')")
