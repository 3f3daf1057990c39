"""Multicore partitioning, the Figure 13 makespan model, and the
thread-based parallel runtime that validates it."""

from ..plan.capacity import (
    plan_capacities,
    sequential_max_occupancy,
    steady_crossings,
)
from ..plan.partitioners import (
    Partition,
    UnknownPartitionerError,
    get_partitioner,
    list_partitioners,
    partition_contiguous,
    partition_lpt,
    register_partitioner,
)
from .channels import (
    Channel,
    ChannelAborted,
    ChannelError,
    ChannelStallTimeout,
    ChannelStats,
)
from .parallel import (
    ParallelExecutionResult,
    parallel_execute,
)
from .simulate import (
    MulticoreResult,
    multicore_speedups,
    profile_actor_costs,
    simulate_multicore,
)

__all__ = [
    "Partition", "UnknownPartitionerError", "get_partitioner",
    "list_partitioners", "partition_contiguous", "partition_lpt",
    "register_partitioner",
    "MulticoreResult", "multicore_speedups", "profile_actor_costs",
    "simulate_multicore",
    "Channel", "ChannelAborted", "ChannelError", "ChannelStallTimeout",
    "ChannelStats", "plan_capacities", "sequential_max_occupancy",
    "steady_crossings",
    "ParallelExecutionResult", "parallel_execute",
]
