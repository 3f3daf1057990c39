"""Worker side of the serving runtime.

Each worker process owns one :class:`WorkerEnv`: a persistent
compiled-backend environment (the content-addressed
:class:`~repro.runtime.compiled.cache.KernelCache`, keyed by the
structhash-induced canonical bodies) plus a *graph cache* mapping
:meth:`SessionSpec.graph_key` to an already-SIMDized graph and schedule.
Repeated sessions for the same (app, target, pipeline) therefore
recompile nothing — neither the MacroSS pipeline nor the closure
kernels — which is what makes a long-lived pool worth its processes.

:func:`worker_main` is the process entry point.  It is a module-level
function taking only picklable arguments, so the pool works under the
``spawn`` start method (the strictest one) as well as ``fork``.
``WorkerEnv`` is equally usable in-process — the fuzz serve oracle and
the unit tests drive it directly for speed, through the very same
encode/decode wire path the processes use.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from .session import (SessionResult, SessionSpec, counter_bags,
                      encode_result)

__all__ = ["WorkerEnv", "worker_main"]

#: Control-message kinds on a lane's result pipe (worker -> pool).
MSG_READY = "ready"
MSG_RESULT = "result"
MSG_BYE = "bye"


@dataclass
class _CachedGraph:
    """One compiled session shape resident in a worker."""

    graph: Any
    schedule: Any
    hits: int = 0


@dataclass
class WorkerEnvStats:
    """Worker-side lifetime statistics (the per-lane "blame" bag)."""

    sessions: int = 0
    errors: int = 0
    busy_s: float = 0.0
    graph_cache_hits: int = 0
    graph_cache_misses: int = 0
    #: on-disk kernel-store counters (hits/misses/stores/quarantined/
    #: errors), zero when no store is configured.
    store: Dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> Dict[str, Any]:
        return {"sessions": self.sessions, "errors": self.errors,
                "busy_s": self.busy_s,
                "graph_cache_hits": self.graph_cache_hits,
                "graph_cache_misses": self.graph_cache_misses,
                "store": dict(self.store)}


class WorkerEnv:
    """Persistent per-worker execution environment.

    ``backend="compiled"`` builds a private
    :class:`~repro.runtime.compiled.CompiledBackend` whose kernel cache
    lives as long as the worker; ``backend="vector"`` builds a private
    :class:`~repro.runtime.vector.VectorBackend` the same way (numpy
    batch kernels with per-actor fallback, same kernel cache);
    ``backend="interp"`` serves through the reference interpreter (no
    kernel cache, still graph-cached).  Both caches are keyed by content
    and unbounded: they grow with the distinct session shapes a worker
    has served, never per session.

    ``store`` (a :class:`~repro.serve.store.KernelStore`, a directory
    path, or ``None``) plugs in the per-machine on-disk artifact store:
    graph-cache misses consult it before compiling, and cold compiles
    publish back, so a freshly (re)started worker warms from what its
    siblings already paid for.
    """

    def __init__(self, backend: str = "compiled", *,
                 store: Any = None) -> None:
        self.backend_name = backend
        if backend == "compiled":
            from ..runtime.compiled import CompiledBackend
            self.backend: Any = CompiledBackend()
        elif backend == "vector":
            from ..runtime.vector import VectorBackend
            self.backend = VectorBackend()
        else:
            from ..runtime.backends import resolve_backend
            self.backend = resolve_backend(backend)
        if store is not None and not hasattr(store, "load"):
            from .store import KernelStore
            store = KernelStore(store)
        self.store = store
        self._graphs: Dict[str, _CachedGraph] = {}
        self.stats = WorkerEnvStats()

    # -- graph materialization -------------------------------------------------
    def _build_graph(self, spec: SessionSpec) -> Tuple[Any, Any]:
        from ..schedule.steady_state import build_schedule
        from ..simd.machine import get_target
        from ..simd.pipeline import compile_graph

        if spec.benchmark is not None:
            from ..apps import get_benchmark
            from ..graph.flatten import flatten
            graph = flatten(get_benchmark(spec.benchmark))
        else:
            from ..fuzz.descriptions import desc_from_dict, materialize
            from ..graph.flatten import flatten
            graph = flatten(materialize(desc_from_dict(spec.program)))
        if spec.pipeline is not None:
            machine = get_target(spec.machine)
            graph = compile_graph(graph, machine,
                                  pipeline=spec.pipeline).graph
        return graph, build_schedule(graph)

    def _resolve_graph(self, spec: SessionSpec) -> Tuple[_CachedGraph, bool]:
        key = spec.graph_key()
        entry = self._graphs.get(key)
        if entry is not None:
            entry.hits += 1
            self.stats.graph_cache_hits += 1
            return entry, True
        artifact = self.store.load(key) if self.store is not None else None
        if artifact is not None:
            graph, schedule = artifact
        else:
            graph, schedule = self._build_graph(spec)
            if self.store is not None:
                self.store.store(key, graph, schedule)
        if self.store is not None:
            self.stats.store = self.store.stats.snapshot()
        entry = _CachedGraph(graph, schedule)
        self._graphs[key] = entry
        self.stats.graph_cache_misses += 1
        return entry, False

    def graph_cache_size(self) -> int:
        return len(self._graphs)

    # -- serving ---------------------------------------------------------------
    def run_session(self, spec: SessionSpec, *, seq: int = 0,
                    worker: int = -1) -> SessionResult:
        """Serve one session; never raises (failures come back as
        ``result.error``, so a bad request cannot kill the worker)."""
        from ..simd.machine import get_target
        from ..runtime.executor import execute

        start = time.perf_counter()
        self.stats.sessions += 1
        try:
            machine = get_target(spec.machine)
            entry, cache_hit = self._resolve_graph(spec)
            result = execute(entry.graph, entry.schedule, machine=machine,
                             iterations=spec.iterations,
                             backend=self.backend, cores=spec.cores)
            busy = time.perf_counter() - start
            self.stats.busy_s += busy
            return SessionResult(
                seq=seq, worker=worker, tag=spec.tag,
                graph_name=entry.graph.name,
                backend=result.backend,
                iterations=spec.iterations,
                outputs=list(result.outputs),
                init_outputs=list(result.init_outputs),
                steady_bags=counter_bags(result.steady_counters),
                init_bags=counter_bags(result.init_counters),
                kernel_cache=result.kernel_cache,
                graph_cache_hit=cache_hit,
                busy_s=busy,
            )
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            busy = time.perf_counter() - start
            self.stats.busy_s += busy
            self.stats.errors += 1
            return SessionResult(
                seq=seq, worker=worker, tag=spec.tag,
                busy_s=busy,
                error=f"{type(exc).__name__}: {exc}")


def worker_main(worker_id: int, request_queue: Any, results: Any,
                backend: str, wire_transport: str = "queue",
                shm_threshold: int = 0,
                pool_uid: str = "",
                store_dir: Optional[str] = None) -> None:
    """Process entry point: build the environment, announce readiness,
    then serve requests until the ``None`` shutdown sentinel arrives.

    Requests arrive as ``(seq, spec_wire)`` tuples; every response is a
    ``(kind, worker_id, payload)`` tuple sent from this (the main)
    thread down ``results``, the write end of the lane's one-way pipe —
    the pool relies on that being the pipe's only writer.
    With ``wire_transport="shm"``, results whose output arrays reach
    ``shm_threshold`` values travel as named shared-memory segments
    (``pool_uid`` keys the deterministic segment names) and only the
    envelope crosses the pipe.  ``store_dir`` plugs in the per-machine
    on-disk artifact store.
    """
    try:
        env = WorkerEnv(backend, store=store_dir)
    except Exception:  # pragma: no cover - only on broken installs
        results.send((MSG_BYE, worker_id,
                      {"error": traceback.format_exc()}))
        return
    results.send((MSG_READY, worker_id, None))
    while True:
        message = request_queue.get()
        if message is None:
            break
        seq, wire = message
        try:
            spec = SessionSpec.from_wire(wire)
            result = env.run_session(spec, seq=seq, worker=worker_id)
        except Exception as exc:  # noqa: BLE001 - malformed spec
            result = SessionResult(seq=seq, worker=worker_id,
                                   error=f"{type(exc).__name__}: {exc}")
        out = encode_result(result)
        if wire_transport == "shm":
            from .transport import stage_result_shm
            out = stage_result_shm(out, uid=pool_uid, worker=worker_id,
                                   seq=seq, threshold=shm_threshold)
        results.send((MSG_RESULT, worker_id, out))
    results.send((MSG_BYE, worker_id, env.stats.snapshot()))
