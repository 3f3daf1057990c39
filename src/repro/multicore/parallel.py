"""Thread-based parallel executor: a :class:`Partition` actually *runs*.

:mod:`repro.multicore.simulate` models Figure 13's makespan analytically;
this module executes it.  Each core of a partition gets a worker thread
driving the ordinary execution backends (interpreter or compiled) over
exactly its slice of the global schedule; tapes cut by the partition are
replaced with bounded, double-buffered
:class:`~repro.multicore.channels.Channel` objects, so a core that runs
ahead of its consumers stalls on real backpressure and a core that
outruns its producers blocks on the read — the paper's §5 communication
semantics, executed rather than priced.

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

``pace`` optionally attaches a per-firing wall-clock cost to each actor
(seconds per firing, usually derived from modeled cycles via
:func:`calibrated_pace`).  Sleeping releases the GIL, so a paced run
exhibits the *modeled* parallelism on real threads — this is how the
multicore benchmark validates Figure 13's makespan model against a
measured wall-clock run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from ..graph.stream_graph import StreamGraph
from ..obs.tracer import Tracer, ensure_tracer
from ..perf.counters import PerActorCounters
from ..runtime.errors import StreamRuntimeError
from ..runtime.executor import ExecutionResult, _GraphRun, \
    _annotate_tape_fallbacks, execute
from ..runtime.backends import resolve_backend
from ..runtime.tape import Tape
from ..schedule.steady_state import Schedule, build_schedule
from ..simd.machine import CORE_I7, MachineDescription
from ..plan.capacity import plan_capacities
from ..plan.context import profile_actor_costs
from ..plan.partitioners import Partition, get_partitioner, partition_lpt
from .channels import Channel, ChannelAborted, RunAbort

__all__ = ["ParallelExecutionResult", "parallel_execute", "calibrated_pace"]


@dataclass
class ParallelExecutionResult(ExecutionResult):
    """A sequential-identical :class:`ExecutionResult` plus the parallel
    run's anatomy: the partition, per-core counter bags (which merge back
    into the aggregate ``init_counters``/``steady_counters`` exactly),
    per-channel statistics, and the measured wall time."""

    cores: int = 1
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


def _merge_per_actor(parts: Dict[int, PerActorCounters]) -> PerActorCounters:
    """Union of disjoint per-core bags (cores never share an actor)."""
    merged = PerActorCounters()
    for counters in parts.values():
        for actor_id, bag in counters.by_actor.items():
            merged.for_actor(actor_id).merge(bag)
    return merged


def _normalize_partition(graph: StreamGraph,
                         partition: Union[Partition, Dict[int, int], None],
                         cores: int,
                         partitioner: Union[str, Callable, None],
                         machine: MachineDescription) -> Partition:
    if partition is None:
        if cores == 1 and partitioner is None:
            return Partition({aid: 0 for aid in graph.actors}, 1)
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


@dataclass
class _CoreOutcome:
    """What one worker thread hands back to the coordinator."""

    init_counters: Optional[PerActorCounters] = None
    steady_counters: Optional[PerActorCounters] = None
    init_outputs: List[Any] = field(default_factory=list)
    outputs: List[Any] = field(default_factory=list)


class _Pacer:
    """Accumulates owed per-firing wall time; sleeps in >= 1 ms batches so
    tiny per-firing costs are not swamped by timer granularity.  Sleeping
    releases the GIL, which is the whole point."""

    __slots__ = ("owed", "min_sleep")

    def __init__(self, min_sleep: float = 0.002) -> None:
        self.owed = 0.0
        self.min_sleep = min_sleep

    def add(self, seconds: float) -> None:
        self.owed += seconds
        if self.owed >= self.min_sleep:
            time.sleep(self.owed)
            self.owed = 0.0

    def flush(self) -> None:
        if self.owed > 0.0:
            time.sleep(self.owed)
            self.owed = 0.0


def calibrated_pace(graph: StreamGraph,
                    machine: MachineDescription,
                    schedule: Optional[Schedule] = None,
                    *,
                    seconds_per_cycle: float,
                    profile_iterations: int = 2) -> Dict[int, float]:
    """Per-actor wall seconds per firing, proportional to modeled cycles.

    Profiles ``graph`` sequentially, divides each actor's steady-state
    cycles by its firing count, and scales by ``seconds_per_cycle`` — the
    emulation knob that lets a paced parallel run reproduce the modeled
    compute/communication balance in measurable wall time.
    """
    if schedule is None:
        schedule = build_schedule(graph)
    result = execute(graph, schedule, machine=machine,
                     iterations=profile_iterations)
    firings = result.firings_by_actor()
    pace: Dict[int, float] = {}
    for actor_id, cycles in result.actor_cycles(machine).items():
        fired = firings.get(actor_id, 0)
        if fired > 0:
            pace[actor_id] = (cycles / fired) * seconds_per_cycle
    return pace


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
                     channel_capacities: Optional[Dict[int, int]] = None,
                     channel_slack: int = 1,
                     stall_timeout: float = 30.0,
                     pace: Optional[Dict[int, float]] = None
                     ) -> ParallelExecutionResult:
    """Run ``graph`` on ``cores`` worker threads and return a result that
    is event-identical to the sequential :func:`execute`.

    ``partition`` may be a :class:`Partition`, a raw ``actor id -> core``
    dict, or ``None`` (profile the graph and apply ``partitioner``,
    default :func:`~repro.plan.partitioners.partition_lpt`).  The
    partition must cover every actor with cores in ``range(cores)``.

    ``channel_capacities`` overrides the planned per-cut-tape bounds
    (clamped up to the deadlock-free minimum); ``channel_slack`` is the
    number of extra steady iterations of double-buffer headroom.

    ``pace`` maps actor ids to wall seconds per firing (see
    :func:`calibrated_pace`).

    Tracing: one ``parallel_execute`` span on the calling thread, one
    ``core<N>`` span (with nested ``.init``/``.steady`` phases) per
    worker thread, and a ``channel.stall`` instant every time a channel
    side blocks.
    """
    tracer = ensure_tracer(tracer)
    if schedule is None:
        with tracer.span("runtime.schedule", cat="runtime",
                         graph=graph.name):
            schedule = build_schedule(graph)
    partition = _normalize_partition(graph, partition, cores, partitioner,
                                     machine)
    cores = partition.cores
    core_of = partition.assignment
    be = resolve_backend(backend)
    cache = getattr(be, "cache", None)

    cut_tapes = sorted(
        tid for tid, edge in graph.tapes.items()
        if core_of[edge.src] != core_of[edge.dst])
    capacities = plan_capacities(graph, schedule, cut_tapes,
                                 slack_iterations=channel_slack)
    if channel_capacities:
        for tid, cap in channel_capacities.items():
            if tid in capacities:
                # Never below the deadlock-free minimum.
                floor = plan_capacities(graph, schedule, [tid],
                                        slack_iterations=0)[tid]
                capacities[tid] = max(cap, floor)

    abort = RunAbort()
    live_tracer = tracer if tracer.enabled else None
    # Every edge gets the backend's preferred storage (the vector backend's
    # ndarray-native NdTape); a cut edge's is wrapped in a bounded Channel.
    tape_cls = getattr(be, "tape_class", Tape)
    tapes: Dict[int, Any] = {}
    channels: Dict[int, Channel] = {}
    for tid, edge in graph.tapes.items():
        tape = tape_cls(f"tape{tid}")
        if tid in capacities:
            channel = Channel(tape.name, capacities[tid], tape=tape,
                              abort=abort, tracer=live_tracer,
                              stall_timeout=stall_timeout)
            channel.preload(edge.initial)
            tapes[tid] = channels[tid] = channel
        else:
            for item in edge.initial:
                tape.push(item)
            tapes[tid] = tape

    with tracer.span("parallel_execute", cat="runtime", graph=graph.name,
                     backend=be.name, machine=machine.name,
                     iterations=iterations, cores=cores,
                     cut_tapes=len(cut_tapes)) as exec_span:
        cache_before = cache.stats.snapshot() if cache is not None else None
        core_actors: Dict[int, List[int]] = {c: [] for c in range(cores)}
        for actor_id, core in core_of.items():
            core_actors[core].append(actor_id)
        runs: Dict[int, _GraphRun] = {}
        with tracer.span("runtime.setup", cat="runtime") as sp:
            for core in range(cores):
                if not core_actors[core]:
                    continue
                runs[core] = _GraphRun(graph, schedule, machine, be,
                                       tapes=tapes,
                                       only_actors=core_actors[core])
            sp.add(actors=len(graph.actors), tapes=len(graph.tapes),
                   channels=len(channels))
        kernel_cache: Optional[Dict[str, int]] = None
        if cache is not None:
            kernel_cache = cache.stats.delta(cache_before)
            kernel_cache["size"] = len(cache)

        if pace:
            for core, run in runs.items():
                pacer = _Pacer()
                for actor_id, cost in pace.items():
                    fn = run.fire_fns.get(actor_id)
                    if fn is None or cost <= 0.0:
                        continue

                    def paced(_fn=fn, _cost=cost, _pacer=pacer) -> None:
                        _fn()
                        _pacer.add(_cost)
                    run.fire_fns[actor_id] = paced

        init_slices = {
            core: tuple((aid, n) for aid, n in schedule.init
                        if core_of[aid] == core)
            for core in runs}
        steady_slices = {
            core: tuple((aid, n) for aid, n in schedule.steady
                        if core_of[aid] == core)
            for core in runs}

        outcomes: Dict[int, _CoreOutcome] = {core: _CoreOutcome()
                                             for core in runs}

        def worker(core: int) -> None:
            run = runs[core]
            outcome = outcomes[core]
            try:
                with tracer.span(f"core{core}", cat="core",
                                 actors=len(core_actors[core])):
                    with tracer.span(f"core{core}.init", cat="core"):
                        run.run_phase(init_slices[core])
                    outcome.init_outputs = run.drain_collector()
                    outcome.init_counters = run.reset_counters()
                    with tracer.span(f"core{core}.steady", cat="core",
                                     iterations=iterations):
                        for _ in range(iterations):
                            run.run_phase(steady_slices[core])
                    outcome.outputs = run.drain_collector()
                    outcome.steady_counters = run.counters
            except ChannelAborted:
                pass  # a peer already tripped the abort flag
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                abort.trip(exc)

        start = time.perf_counter()
        threads = [threading.Thread(target=worker, args=(core,),
                                    name=f"macross-core{core}", daemon=True)
                   for core in sorted(runs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if abort.tripped:
            raise abort.exception

        per_core_init = {core: outcome.init_counters
                         for core, outcome in outcomes.items()
                         if outcome.init_counters is not None}
        per_core_steady = {core: outcome.steady_counters
                           for core, outcome in outcomes.items()
                           if outcome.steady_counters is not None}
        init_outputs: List[Any] = []
        outputs: List[Any] = []
        for core, outcome in sorted(outcomes.items()):
            # Exactly one core owns the collector, so "merging" is a
            # deterministic concatenation over at most one contributor.
            init_outputs.extend(outcome.init_outputs)
            outputs.extend(outcome.outputs)

        channel_stats = {tid: channel.stats.snapshot()
                         for tid, channel in channels.items()}
        vectorized: Optional[Dict[int, str]] = None
        if be.name == "vector":
            vectorized = {}
            for run in runs.values():
                statuses = dict(run.vector_status)
                for actor_id, runner in run.actors.items():
                    status = getattr(runner, "vector_status", None)
                    if status is not None:
                        statuses[actor_id] = status
                _annotate_tape_fallbacks(run, statuses)
                vectorized.update(statuses)
        batched_firings = sum(run.batched_firings for run in runs.values())
        if tracer.enabled:
            for tid, stats in channel_stats.items():
                tracer.event(f"channel.tape{tid}", cat="channel", **stats)
            exec_span.add(outputs=len(outputs), wall_s=round(wall, 6),
                          stalls=sum(s["push_stalls"] + s["pop_stalls"]
                                     for s in channel_stats.values()))

        result = ParallelExecutionResult(
            graph_name=graph.name,
            iterations=iterations,
            outputs=outputs,
            init_outputs=init_outputs,
            init_counters=_merge_per_actor(per_core_init),
            steady_counters=_merge_per_actor(per_core_steady),
            schedule=schedule,
            backend=be.name,
            kernel_cache=kernel_cache,
            vectorized=vectorized,
            batched_firings=batched_firings,
            cores=cores,
            partition=partition,
            per_core_init=per_core_init,
            per_core_steady=per_core_steady,
            channel_stats=channel_stats,
            wall_time_s=wall,
        )
    return result
