"""Communication-aware plan evaluation — the one partition cost model.

:func:`evaluate_partition` prices a partition per steady *iteration* as
pure arithmetic over the :class:`~repro.plan.context.PlanContext`, so
every branch-and-bound node can evaluate a candidate without executing
anything.  The same function is the Figure 13 model: Figure 13
(:func:`repro.experiments.fig13.multicore_speedups`), the partitioner
ablation and ``macross multicore`` divide its makespan by
:attr:`~repro.plan.context.PlanContext.outputs_per_iteration` to get
cycles per output item.

The accounting:

* each core's load is the compute cycles of its actors plus a
  ``traffic x COMM-price`` charge for every cut tape it *receives* (the
  paper's "the receiving core stalls on the transfer", §5); the sending
  side's stores are already priced in the producer's compute, and only
  steady-state crossings count — init-phase priming amortises to zero,
  like init-phase compute;
* a partition's buffer memory is the sum of the deadlock-free channel
  capacities (:mod:`repro.plan.capacity`) over its cut tapes — exactly
  what :func:`repro.multicore.parallel.parallel_execute` will allocate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .context import PlanContext
from .partitioners import Partition

__all__ = ["PlanEvaluation", "evaluate_partition"]


@dataclass(frozen=True)
class PlanEvaluation:
    """One candidate partition, priced.

    ``makespan`` is modeled cycles per steady iteration of the busiest
    core (compute + received communication); ``memory_items`` is the
    total planned channel capacity over cut tapes, in items.
    """

    makespan: float
    memory_items: int
    core_loads: Tuple[float, ...]
    comm_cycles: float
    cut_tapes: Tuple[int, ...]

    def dominates(self, other: "PlanEvaluation",
                  eps: float = 1e-9) -> bool:
        """True when this plan is at least as good on both axes and
        strictly better on one (the Pareto order)."""
        no_worse = (self.makespan <= other.makespan + eps
                    and self.memory_items <= other.memory_items)
        better = (self.makespan < other.makespan - eps
                  or self.memory_items < other.memory_items)
        return no_worse and better


def evaluate_partition(ctx: PlanContext,
                       partition: Partition) -> PlanEvaluation:
    """Price ``partition`` on ``ctx`` (pure arithmetic, no execution)."""
    assignment = partition.assignment
    loads = [0.0] * partition.cores
    for actor_id, core in assignment.items():
        loads[core] += ctx.costs.get(actor_id, 0.0)
    comm_total = 0.0
    memory = 0
    cut = []
    for tid, edge in ctx.graph.tapes.items():
        if assignment[edge.src] == assignment[edge.dst]:
            continue
        cut.append(tid)
        cost = ctx.comm_cycles(tid)
        loads[assignment[edge.dst]] += cost
        comm_total += cost
        memory += ctx.capacities[tid]
    return PlanEvaluation(
        makespan=max(loads) if loads else 0.0,
        memory_items=memory,
        core_loads=tuple(loads),
        comm_cycles=comm_total,
        cut_tapes=tuple(sorted(cut)),
    )
