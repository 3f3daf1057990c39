"""Channel-capacity planning (extracted from ``repro.multicore.channels``).

Bounded cross-core buffers can introduce *artificial* deadlock in an SDF
graph that is perfectly schedulable with unbounded ones.  The planner
here sizes every channel from the schedule itself:

* :func:`sequential_max_occupancy` symbolically walks the init phase and
  one steady iteration of the global schedule (no data, just rates) and
  records the maximum occupancy every tape reaches.  Because the steady
  state returns every tape to its post-init level (SDF's defining
  invariant), this is the maximum over the whole run.
* :func:`plan_capacities` grants each cut tape that sequential maximum
  **plus** one extra steady iteration's worth of items (classic double
  buffering: the producing core may run one full iteration ahead before
  it stalls).

With capacity >= the sequential maximum the parallel execution is
deadlock-free for any per-core interleaving that preserves each core's
slice order of the global schedule: consider the earliest unfinished
firing of the global schedule — all of its inputs were produced by
earlier firings (already complete), and its output occupancy cannot
exceed what the sequential execution reached at the same point, so it
can always make progress.

This module is the *memory model* of the planning subsystem: the
branch-and-bound optimizer (:mod:`repro.plan.optimizer`) prices a
candidate partition's buffer footprint as the sum of these capacities
over its cut tapes, which is exactly what the parallel runtime will
allocate for it.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..graph.stream_graph import StreamGraph
from ..schedule.steady_state import Schedule

__all__ = ["plan_capacities", "sequential_max_occupancy",
           "steady_crossings"]


def steady_crossings(graph: StreamGraph, schedule: Schedule) -> Dict[int, int]:
    """Items carried by each tape during one steady iteration."""
    return {tid: schedule.reps[edge.src] * graph.push_rate(edge.src,
                                                           edge.src_port)
            for tid, edge in graph.tapes.items()}


def sequential_max_occupancy(graph: StreamGraph,
                             schedule: Schedule) -> Dict[int, int]:
    """Maximum occupancy each tape reaches under the *sequential*
    execution of ``schedule`` (symbolic walk over rates; conservative in
    that a block of ``n`` firings is charged pushes-before-pops)."""
    occupancy = {tid: len(edge.initial)
                 for tid, edge in graph.tapes.items()}
    high = dict(occupancy)

    def walk(phase) -> None:
        for actor_id, firings in phase:
            for edge in graph.out_tapes(actor_id):
                occupancy[edge.id] += firings * graph.push_rate(
                    actor_id, edge.src_port)
                if occupancy[edge.id] > high[edge.id]:
                    high[edge.id] = occupancy[edge.id]
            for edge in graph.in_tapes(actor_id):
                occupancy[edge.id] -= firings * graph.pop_rate(
                    actor_id, edge.dst_port)

    walk(schedule.init)
    walk(schedule.steady)
    return high


def plan_capacities(graph: StreamGraph, schedule: Schedule,
                    cut_tapes: Iterable[int]) -> Dict[int, int]:
    """Deadlock-free capacity for every cut tape.

    ``sequential max occupancy`` guarantees liveness (see the module
    docstring); one extra steady iteration of headroom lets the producing
    core run ahead (double buffering).
    """
    high = sequential_max_occupancy(graph, schedule)
    crossing = steady_crossings(graph, schedule)
    return {tid: max(1, high[tid]) + crossing[tid] for tid in cut_tapes}
