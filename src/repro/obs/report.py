"""Human-readable views over captured traces (``macross trace``).

Renders the per-pass table of an Algorithm-1 compile span, the top-N
hottest actors of an execution, and the kernel-cache statistics line —
the textual counterpart of loading the Chrome trace in a viewer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence

from .tracer import TraceEvent, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..graph.stream_graph import StreamGraph
    from ..runtime.executor import ExecutionResult
    from ..simd.machine import MachineDescription

__all__ = ["pass_rows", "pass_table", "hottest_actors_table",
           "kernel_cache_summary", "pass_trail", "serve_table"]

#: Span category used by the Algorithm-1 driver for its passes.
PASS_CATEGORY = "pass"
#: Span category used by the runtime executor for its phases.
RUNTIME_CATEGORY = "runtime"


def _span_range(value_before, value_after) -> str:
    if value_before is None or value_after is None:
        return "?"
    if value_before == value_after:
        return str(value_before)
    return f"{value_before}→{value_after}"


def pass_rows(source) -> List[Sequence[object]]:
    """Table rows (pass, ms, actors, tapes, detail) for every pass span."""
    tracer = source if isinstance(source, Tracer) else None
    if tracer is not None:
        spans = tracer.spans(PASS_CATEGORY)
    else:
        spans = sorted((e for e in source
                        if e.ph == "X" and e.cat == PASS_CATEGORY),
                       key=lambda e: e.ts)
    rows: List[Sequence[object]] = []
    for span in spans:
        args = span.args
        rows.append((
            span.name,
            f"{span.dur / 1000.0:.3f}",
            _span_range(args.get("actors_before"), args.get("actors_after")),
            _span_range(args.get("tapes_before"), args.get("tapes_after")),
            str(args.get("detail", "")),
        ))
    return rows


def pass_table(source) -> str:
    """Per-pass table of an Algorithm-1 compile trace."""
    from ..experiments.tables import format_table
    rows = pass_rows(source)
    if not rows:
        return "(no pass spans captured)"
    return format_table(["pass", "ms", "actors", "tapes", "detail"], rows)


def hottest_actors_table(graph: "StreamGraph", result: "ExecutionResult",
                         machine: "MachineDescription", top: int = 10) -> str:
    """Top-N actors by modeled steady-state cycles, with firing counts."""
    from ..experiments.tables import format_table
    from ..perf.report import classify_cycles

    counters = result.steady_counters
    per_actor = counters.cycles_by_actor(machine)
    total = sum(per_actor.values()) or 1.0
    ranked = sorted(per_actor.items(), key=lambda kv: -kv[1])
    if top:
        ranked = ranked[:top]
    rows: List[Sequence[object]] = []
    for actor_id, cycles in ranked:
        bag = counters.by_actor[actor_id]
        buckets = classify_cycles(bag, machine)
        dominant = max(buckets.items(), key=lambda kv: kv[1])
        name = (graph.actors[actor_id].name if actor_id in graph.actors
                else f"actor{actor_id}")
        rows.append((name, bag["fire"], cycles,
                     f"{100 * cycles / total:.1f}%", dominant[0]))
    return format_table(
        ["actor", "firings", "cycles", "share", "dominant class"], rows)


def kernel_cache_summary(stats: Optional[Mapping[str, int]]) -> str:
    """One-line kernel-cache statistics (compiled backend only)."""
    if not stats:
        return "kernel cache: n/a (interp backend)"
    return ("kernel cache: {lookups} lookups, {hits} hits, "
            "{misses} misses ({compiled} compiled), {size} resident".format(
                lookups=stats.get("lookups", 0),
                hits=stats.get("hits", 0),
                misses=stats.get("misses", stats.get("compiled", 0)),
                compiled=stats.get("compiled", 0),
                size=stats.get("size", 0)))


def serve_table(stats: Sequence[Mapping[str, object]]) -> str:
    """Per-worker blame table for a serving pool.

    ``stats`` is the list of :meth:`repro.serve.pool.WorkerStats.snapshot`
    dicts (``ServePool.stats_snapshot()`` / ``shutdown()``) — requests,
    rejections, errors, supervision activity (lane restarts, requeued
    sessions), queue high-water, busy time, and kernel-/graph-cache
    behaviour per worker lane, the gem5 stream-engine "per-lane
    statistics" idiom rendered as text.
    """
    from ..experiments.tables import format_table
    rows: List[Sequence[object]] = []
    for entry in stats:
        cache = entry.get("cache") or {}
        rows.append((
            f"w{entry.get('worker')}",
            entry.get("submitted", 0),
            entry.get("completed", 0),
            entry.get("rejected", 0),
            entry.get("errors", 0),
            entry.get("restarts", 0),
            entry.get("requeued", 0),
            entry.get("max_queue_depth", 0),
            f"{float(entry.get('busy_s', 0.0)) * 1e3:.1f}",
            f"{cache.get('hits', 0)}/{cache.get('lookups', 0)}",
            entry.get("graph_cache_hits", 0),
        ))
    return format_table(
        ["worker", "submitted", "completed", "rejected", "errors",
         "restarts", "requeued", "max depth", "busy ms", "kcache hit",
         "gcache hit"], rows)


def pass_trail(source) -> tuple:
    """Compact '(pass detail)' trail of a compile trace — what the fuzz
    harness attaches to a divergence so a miscompile names the passes
    that produced it."""
    trail = []
    for row in pass_rows(source):
        name, _ms, _actors, _tapes, detail = row
        trail.append(f"{name}[{detail}]" if detail else str(name))
    return tuple(trail)
