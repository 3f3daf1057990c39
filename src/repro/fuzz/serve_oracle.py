"""Serve-parity oracle: the serving runtime must be a transparent shard.

A session round-tripped through :mod:`repro.serve` — spec serialized to
the worker, executed against the worker's persistent caches, result
encoded / transported / decoded — must be *event-identical* to a direct
:func:`repro.runtime.executor.execute` of the same program: same
outputs, same init outputs, same per-actor counter bags.  Anything else
is a ``kind="serve"`` :class:`~repro.fuzz.harness.Divergence`.

Two transports are supported:

* ``pool=`` — a live :class:`~repro.serve.pool.ServePool`: the real
  cross-process path.  CI drives three fuzz seeds through a 2-worker
  pool this way.
* inline (default) — a :class:`~repro.serve.worker.WorkerEnv` in this
  process, with the result still forced through
  ``encode_result -> pickle -> decode_result``, i.e. the identical wire
  seam minus the process hop.  Fast enough for fuzz campaigns, and the
  ``wire_filter`` hook lets mutation tests corrupt the serialized form
  to prove this oracle actually looks at the bytes.
"""

from __future__ import annotations

import pickle
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..graph.flatten import flatten
from ..perf.counters import counter_bags
from ..runtime.executor import execute
from ..schedule.steady_state import build_schedule
from ..simd.machine import CORE_I7
from ..simd.pipeline import compile_graph
from .descriptions import ProgramDesc, desc_to_dict, materialize
from .harness import CheckReport, Divergence

__all__ = ["SERVE_PIPELINES", "SERVE_TRANSPORTS", "check_serve_program"]

#: Compilation pipelines the serve oracle exercises per program — the two
#: ends of the spectrum, mirroring the parallel-parity oracle's option
#: sets.
SERVE_PIPELINES: Tuple[str, ...] = ("scalar", "full")

#: Wire transports the oracle can force on the inline path: ``"queue"``
#: is the plain pickle round trip, ``"shm"`` forces every output array
#: through a real shared-memory segment (threshold 0) and back.
SERVE_TRANSPORTS: Tuple[str, ...] = ("queue", "shm")

#: Mutation-test hook: wire dict -> wire dict, applied between encode and
#: decode on the inline transport (after shm staging, so a filter can
#: corrupt the shm envelope too).
WireFilter = Callable[[dict], dict]

#: Inline shm segments need process-unique names; one counter per import.
_INLINE_SEQ = [0]


def _serve_one_inline(env, spec, wire_filter: Optional[WireFilter],
                      wire_transport: str = "queue"):
    import os

    from ..serve.session import decode_result, encode_result
    from ..serve.transport import load_result_shm, stage_result_shm

    raw = env.run_session(spec)
    wire = encode_result(raw)
    if wire_transport == "shm":
        _INLINE_SEQ[0] += 1
        # threshold 0: every packable array takes the segment path, so
        # the oracle genuinely covers the shm encode/decode pair.
        wire = stage_result_shm(wire, uid=f"fz{os.getpid() % 100000}",
                                worker=0, seq=_INLINE_SEQ[0], threshold=0)
    if wire_filter is not None:
        wire = wire_filter(wire)
    # Force the same byte-level round trip the process pipe performs.
    wire = pickle.loads(pickle.dumps(wire))
    wire = load_result_shm(wire)
    return decode_result(wire)


def check_serve_program(desc: ProgramDesc, *,
                        pool=None,
                        env=None,
                        pipelines: Sequence[str] = SERVE_PIPELINES,
                        machines: Sequence[str] = (CORE_I7.name,),
                        backend: str = "compiled",
                        iterations: int = 2,
                        wire_transport: str = "queue",
                        wire_filter: Optional[WireFilter] = None,
                        stop_on_first: bool = True) -> CheckReport:
    """Check one generated program through the serving runtime.

    ``pool`` selects the real cross-process transport (build the pool
    with the ``wire_transport`` under test); otherwise an inline
    :class:`WorkerEnv` (reused across calls when passed via ``env``)
    runs the session with the full encode/pickle/decode round trip —
    and, with ``wire_transport="shm"``, through a real shared-memory
    segment per output array.  ``wire_filter`` is inline-only by
    construction — a live pool's serializer runs in another process.
    """
    from ..serve.session import SessionSpec
    from ..serve.worker import WorkerEnv

    if pool is not None and wire_filter is not None:
        raise ValueError("wire_filter requires the inline transport "
                         "(the pool's serializer lives in another process)")
    if wire_transport not in SERVE_TRANSPORTS:
        raise ValueError(f"wire_transport must be one of "
                         f"{SERVE_TRANSPORTS}, got {wire_transport!r}")
    report = CheckReport()

    def diverge(config: str, detail: str, kind: str = "serve") -> bool:
        report.divergences.append(Divergence(kind, config,
                                             str(detail)[:500]))
        return stop_on_first

    try:
        graph = flatten(materialize(desc))
        program_wire = desc_to_dict(desc)
    except Exception as exc:
        diverge("materialize", f"{type(exc).__name__}: {exc}", kind="crash")
        return report
    if env is None and pool is None:
        env = WorkerEnv(backend)

    for mach_name in machines:
        from ..simd.machine import get_target
        machine = get_target(mach_name)
        for pipeline in pipelines:
            config = f"{pipeline}/{mach_name}/{backend}"
            report.configs_checked += 1
            try:
                tgraph = compile_graph(graph, machine,
                                       pipeline=pipeline).graph
                schedule = build_schedule(tgraph)
                ref = execute(tgraph, schedule, machine=machine,
                              iterations=iterations, backend=backend)
                report.executions += 1
            except Exception as exc:
                if diverge(config, f"{type(exc).__name__}: {exc}",
                           kind="crash"):
                    return report
                continue

            spec = SessionSpec(program=program_wire, pipeline=pipeline,
                               machine=mach_name, backend=backend,
                               iterations=iterations)
            try:
                if pool is not None:
                    served = pool.run(spec, timeout=300.0)
                else:
                    served = _serve_one_inline(env, spec, wire_filter,
                                               wire_transport)
                report.executions += 1
            except Exception as exc:
                if diverge(config, f"{type(exc).__name__}: {exc}"):
                    return report
                continue

            if served.error is not None:
                if diverge(config, f"session error: {served.error}"):
                    return report
                continue
            if served.outputs != ref.outputs:
                if diverge(config, "served outputs differ from direct "
                                   "execute"):
                    return report
            if served.init_outputs != ref.init_outputs:
                if diverge(config, "served init outputs differ from "
                                   "direct execute"):
                    return report
            if served.steady_bags != counter_bags(ref.steady_counters):
                if diverge(config, "served steady counter bags differ "
                                   "from direct execute"):
                    return report
            if served.init_bags != counter_bags(ref.init_counters):
                if diverge(config, "served init counter bags differ "
                                   "from direct execute"):
                    return report
    return report
