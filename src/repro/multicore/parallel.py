"""Thread-based parallel executor: a :class:`Partition` actually *runs*.

:func:`repro.plan.evaluate_partition` prices Figure 13's makespan
analytically; this module executes it — as the partition-correctness
executor: the proof that a partitioned graph is still the same Kahn
network.  It is the second front door of the one run loop in
:mod:`repro.runtime.executor` and owns only what a partition adds:
:func:`parallel_execute` turns the partition into one slice of actors
per core, puts every tape the partition cuts behind a bounded,
double-buffered
:class:`~repro.multicore.channels.Channel` (capacities from
:func:`~repro.plan.capacity.plan_capacities`), and hands tapes and slices
to the loop, which sets each slice up on any execution backend (interp,
compiled, vector or a backend object) and fires it on its own
``macross-core<N>`` thread — or on the calling thread, with iteration
coalescing, when only one core owns actors.  A core that runs ahead of
its consumers stalls on real backpressure and a core that outruns its
producers blocks on the read — the paper's §5 communication semantics,
executed rather than priced.  A worker that fails trips the shared
:class:`~repro.multicore.channels.RunAbort`, which releases every peer
blocked on a channel; the loop re-raises that first failure.

Correctness story (enforced by the parity suite and the fuzz oracle):

* **Determinism** — the graph plus its per-core schedule slices form a
  Kahn process network: deterministic actors over blocking FIFOs.  The
  interleaving chosen by the OS scheduler cannot change any data value,
  so outputs are bit-identical to the sequential :func:`execute`, run
  after run.
* **Counter reconciliation** — every actor lives on exactly one core and
  fires exactly as often as sequentially, charging the same events to its
  core-local :class:`~repro.perf.counters.PerActorCounters`; merging the
  per-core bags therefore reproduces the sequential counter bags
  event-for-event (init and steady phases separately).
* **Deadlock freedom** — channel capacities come from
  :func:`~repro.plan.capacity.plan_capacities`, which grants at
  least the sequential maximum occupancy plus one steady iteration of
  double-buffer headroom.

Python threads share the GIL, so this runtime is not a speed claim:
unpaced, two cores run slower than one (``multicore_2c`` in ``bench/``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from ..graph.stream_graph import StreamGraph
from ..obs.tracer import Tracer, ensure_tracer
from ..perf.counters import PerActorCounters
from ..runtime.backends import resolve_backend
from ..runtime.errors import StreamRuntimeError
from ..runtime.executor import ExecutionResult, _ensure_schedule, \
    _make_tapes, _run_slices
from ..schedule.steady_state import Schedule
from ..simd.machine import CORE_I7, MachineDescription
from ..plan.capacity import plan_capacities
from ..plan.context import profile_actor_costs
from ..plan.partitioners import Partition, get_partitioner, partition_lpt
from .channels import Channel, RunAbort

__all__ = ["ParallelExecutionResult", "parallel_execute"]


@dataclass
class ParallelExecutionResult(ExecutionResult):
    """A sequential-identical :class:`ExecutionResult` plus the parallel
    run's anatomy: the partition, per-core counter bags (which merge back
    into the aggregate ``init_counters``/``steady_counters`` exactly),
    per-channel statistics, and the measured wall time."""

    cores: int = 1
    #: ``None`` for the trivial one-core run that was never partitioned.
    partition: Optional[Partition] = None
    #: per-core counter bags; disjoint by construction (an actor runs on
    #: exactly one core) and merging them yields the aggregate fields.
    per_core_init: Dict[int, PerActorCounters] = field(default_factory=dict)
    per_core_steady: Dict[int, PerActorCounters] = field(default_factory=dict)
    #: ``tape id -> ChannelStats.snapshot()`` for every cut tape.
    channel_stats: Dict[int, Dict[str, int]] = field(default_factory=dict)
    wall_time_s: float = 0.0

    def core_cycles(self, machine: MachineDescription) -> List[float]:
        """Modeled steady cycles per core (the measured analogue of the
        makespan model's ``core_loads``)."""
        return [self.per_core_steady[core].cycles(machine)
                if core in self.per_core_steady else 0.0
                for core in range(self.cores)]

    def total_stalls(self) -> int:
        return sum(stats["push_stalls"] + stats["pop_stalls"]
                   for stats in self.channel_stats.values())


def _normalize_partition(graph: StreamGraph,
                         partition: Union[Partition, Dict[int, int], None],
                         cores: int,
                         partitioner: Union[str, Callable, None],
                         machine: MachineDescription) -> Partition:
    if partition is None:
        costs = profile_actor_costs(graph, machine)
        chosen = get_partitioner(partitioner, machine) \
            if partitioner is not None else partition_lpt
        partition = chosen(graph, costs, cores)
    if isinstance(partition, dict):
        partition = Partition(dict(partition), cores)
    missing = sorted(set(graph.actors) - set(partition.assignment))
    if missing:
        raise StreamRuntimeError(
            f"partition does not cover actors {missing}")
    bad = {aid: core for aid, core in partition.assignment.items()
           if not 0 <= core < partition.cores}
    if bad:
        raise StreamRuntimeError(
            f"partition assigns cores outside range(0, {partition.cores}): "
            f"{bad}")
    return partition


def parallel_execute(graph: StreamGraph,
                     schedule: Optional[Schedule] = None,
                     *,
                     machine: MachineDescription = CORE_I7,
                     iterations: int = 8,
                     backend: Any = "interp",
                     tracer: Optional[Tracer] = None,
                     cores: int = 2,
                     partition: Union[Partition, Dict[int, int], None] = None,
                     partitioner: Union[str, Callable, None] = None,
                     stall_timeout: float = 30.0
                     ) -> ParallelExecutionResult:
    """Run ``graph`` on ``cores`` worker threads and return a result that
    is event-identical to the sequential :func:`execute`.

    ``partition`` may be a :class:`Partition`, a raw ``actor id -> core``
    dict, or ``None`` (profile the graph and apply ``partitioner``,
    default :func:`~repro.plan.partitioners.partition_lpt`).  The
    partition must cover every actor with cores in ``range(cores)``.
    ``cores=1`` with neither is the trivial placement: nothing is
    profiled or partitioned and the result's ``partition`` is ``None``.

    Each cut tape's channel is as deep as the capacity planner says (one
    steady iteration of slack); a side stalled for longer than
    ``stall_timeout`` seconds raises
    :class:`~repro.multicore.channels.ChannelStallTimeout`.

    Tracing: one ``parallel_execute`` span on the calling thread, one
    ``core<N>`` span (with nested ``.init``/``.steady`` phases) per
    worker thread, and a ``channel.stall`` instant every time a channel
    side blocks.  A run in which one core owns every actor has no worker
    threads and reports ``runtime.init``/``runtime.steady`` instead.
    """
    tracer = ensure_tracer(tracer)
    schedule = _ensure_schedule(graph, schedule, tracer)
    if partition is None and partitioner is None and cores == 1:
        core_of = dict.fromkeys(graph.actors, 0)    # nothing to profile
    else:
        partition = _normalize_partition(graph, partition, cores,
                                         partitioner, machine)
        cores, core_of = partition.cores, partition.assignment
    be = resolve_backend(backend)

    cut_tapes = sorted(
        tid for tid, edge in graph.tapes.items()
        if core_of[edge.src] != core_of[edge.dst])
    capacities = plan_capacities(graph, schedule, cut_tapes)
    abort = RunAbort()
    live_tracer = tracer if tracer.enabled else None
    channels: Dict[int, Channel] = {}

    def behind_channel(tid: int, tape: Any) -> Any:
        if tid not in capacities:
            return tape
        channels[tid] = Channel(tape.name, capacities[tid], tape=tape,
                                abort=abort, tracer=live_tracer,
                                stall_timeout=stall_timeout)
        return channels[tid]

    tapes = _make_tapes(graph, be, behind_channel)
    slices: Dict[int, List[int]] = {}       # cores that own an actor
    for actor_id, core in core_of.items():
        slices.setdefault(core, []).append(actor_id)

    with tracer.span("parallel_execute", cat="runtime", graph=graph.name,
                     backend=be.name, machine=machine.name,
                     iterations=iterations, cores=cores,
                     cut_tapes=len(cut_tapes)) as exec_span:
        fields, parts, wall = _run_slices(graph, schedule, machine, be,
                                          tapes, slices, iterations, tracer,
                                          abort)
        result = ParallelExecutionResult(
            **fields,
            cores=cores,
            partition=partition,
            per_core_init={core: part.init_counters
                           for core, part in parts.items()},
            per_core_steady={core: part.steady_counters
                             for core, part in parts.items()},
            channel_stats={tid: channel.stats.snapshot()
                           for tid, channel in channels.items()},
            wall_time_s=wall,
        )
        if tracer.enabled:
            for tid, stats in result.channel_stats.items():
                tracer.event(f"channel.tape{tid}", cat="channel", **stats)
            exec_span.add(outputs=len(result.outputs), wall_s=round(wall, 6),
                          stalls=result.total_stalls())
    return result
