"""Co-optimizing planning subsystem (`repro.plan`).

Partitioning, channel-buffer sizing, and SIMDization choice used to live
in four modules that could not see each other's costs; this package puts
them behind one seam:

* :mod:`~repro.plan.context` — :class:`PlanContext`: graph, schedule,
  per-actor costs, per-edge traffic, target prices, profiled once;
* :mod:`~repro.plan.partitioners` — the partitioner registry
  (``lpt``/``contiguous``/``opt``) consumed by the parallel runtime, the
  makespan model, the CLI, and the fuzz oracle;
* :mod:`~repro.plan.capacity` — deadlock-free channel capacities (the
  memory a partition pays per cut tape);
* :mod:`~repro.plan.evaluate` — communication-aware pricing of one
  candidate partition (pure arithmetic, no execution), also the Figure 13
  makespan model;
* :mod:`~repro.plan.optimizer` — branch-and-bound min-memory-under-
  makespan-bound (and the dual) over actor->core assignments;
* :mod:`~repro.plan.pareto` — the memory-vs-throughput front per app;
* :mod:`~repro.plan.vectorize` — whole-program scalar-vs-macross choice
  per target.
"""

from .capacity import (
    plan_capacities,
    sequential_max_occupancy,
    steady_crossings,
)
from .context import PlanContext, build_plan_context, profile_actor_costs
from .evaluate import PlanEvaluation, evaluate_partition
from .optimizer import (
    InfeasiblePlanError,
    PlanError,
    PlanResult,
    optimize_partition,
)
from .pareto import ParetoPoint, pareto_front
from .partitioners import (
    Partition,
    UnknownPartitionerError,
    get_partitioner,
    list_partitioners,
    partition_contiguous,
    partition_lpt,
    register_partitioner,
)
from .vectorize import VectorizationPlan, plan_vectorization

__all__ = [
    "PlanContext", "build_plan_context", "profile_actor_costs",
    "plan_capacities", "sequential_max_occupancy", "steady_crossings",
    "PlanEvaluation", "evaluate_partition",
    "InfeasiblePlanError", "PlanError", "PlanResult", "optimize_partition",
    "ParetoPoint", "pareto_front",
    "Partition", "UnknownPartitionerError", "get_partitioner",
    "list_partitioners", "partition_contiguous", "partition_lpt",
    "register_partitioner",
    "VectorizationPlan", "plan_vectorization",
]
