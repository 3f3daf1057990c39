"""Memory-vs-throughput Pareto exploration.

One optimizer run answers "cheapest memory at this speed"; the front
answers the question the ROADMAP's ablation actually asks — *how much
buffer memory does each increment of throughput cost on this target?*
(Lin/Wu/Bhattacharyya's memory-constrained scheduling trade-off.)

:func:`pareto_front` anchors the sweep at the two extremes — the
min-makespan plan (dual objective, unlimited memory) and the serial
all-on-one-core plan (zero cut-channel memory, sequential makespan) —
then minimizes memory under ``points`` evenly spaced makespan bounds in
between.  Dominated and duplicate points are filtered, so the returned
front is strictly monotone: makespan strictly increasing, memory
strictly decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .context import PlanContext
from .evaluate import PlanEvaluation, evaluate_partition
from .optimizer import InfeasiblePlanError, optimize_partition
from .partitioners import Partition

__all__ = ["ParetoPoint", "pareto_front"]

#: Branch-and-bound node budget of every optimizer run in one sweep.
_NODE_BUDGET = 100_000


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated (makespan, memory) trade-off."""

    makespan: float
    memory_items: int
    partition: Partition
    evaluation: PlanEvaluation


def pareto_front(ctx: PlanContext, cores: int, *,
                 points: int = 8) -> List[ParetoPoint]:
    """Sweep the memory-vs-makespan trade-off for ``cores`` workers.

    Returns the non-dominated points sorted by increasing makespan
    (therefore strictly decreasing memory).  ``points`` is the number of
    interior makespan bounds swept between the min-makespan and serial
    anchors; small graphs naturally yield fewer distinct points.
    """
    if points < 0:
        raise InfeasiblePlanError(
            f"pareto sweep needs >= 0 interior points, got {points}",
            bound=float(points))
    fastest = optimize_partition(ctx, cores, objective="makespan",
                                 node_budget=_NODE_BUDGET)
    serial = Partition({aid: 0 for aid in ctx.graph.actors}, cores)
    serial_eval = evaluate_partition(ctx, serial)

    candidates: List[Tuple[Partition, PlanEvaluation]] = [
        (fastest.partition, fastest.evaluation),
        (serial, serial_eval),
    ]
    low = fastest.evaluation.makespan
    high = serial_eval.makespan
    if high > low and points:
        step = (high - low) / (points + 1)
        for index in range(1, points + 1):
            bound = low + step * index
            try:
                plan = optimize_partition(ctx, cores, objective="memory",
                                          makespan_bound=bound,
                                          node_budget=_NODE_BUDGET)
            except InfeasiblePlanError:  # pragma: no cover - bound >= low
                continue
            candidates.append((plan.partition, plan.evaluation))

    # Dominance + duplicate filter: sort by (makespan, memory); keep a
    # point only when it strictly improves memory over everything kept.
    candidates.sort(key=lambda pair: (pair[1].makespan,
                                      pair[1].memory_items))
    front: List[ParetoPoint] = []
    for part, ev in candidates:
        if front and ev.memory_items >= front[-1].memory_items:
            continue
        front.append(ParetoPoint(makespan=ev.makespan,
                                 memory_items=ev.memory_items,
                                 partition=part, evaluation=ev))
    return front
