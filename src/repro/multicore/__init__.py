"""The thread-based parallel runtime: bounded cross-core channels and
:func:`parallel_execute`, which runs a partition on worker threads.

Partitioners, channel capacities and the Figure 13 cost model
(:func:`repro.plan.evaluate_partition`) live in :mod:`repro.plan`."""

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

__all__ = [
    "Channel", "ChannelAborted", "ChannelError", "ChannelStallTimeout",
    "ChannelStats",
    "ParallelExecutionResult", "parallel_execute",
]
