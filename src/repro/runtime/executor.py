"""Steady-state execution of flat stream graphs: the one run loop.

A run is a set of *slices* — disjoint groups of actors, each fired by
its own :class:`_GraphRun` over one shared tape map.  :func:`_run_slices`
is the only place a run happens: it sets the slices up (filters through
the selected backend — ``"interp"``, ``"compiled"``, ``"vector"`` or a
backend object, see :mod:`repro.runtime.backends`; splitters and joiners
natively with equivalent event charging), then takes every slice through
init (priming peeking filters) → drain → fresh counters → ``iterations``
steady cycles (the outer while-loop of Figure 1b) → drain.  One slice
runs on the calling thread; several run on one thread each.

Who does what:

* **Tapes** come from the caller, built by :func:`_make_tapes` (the
  backend's preferred storage, feedback delays preloaded, each edge
  optionally wrapped).  :func:`execute` passes plain tapes and a single
  slice holding every actor; :func:`repro.multicore.parallel
  .parallel_execute` puts each cut edge's tape behind a bounded channel
  and passes one slice per core.
* **Coalescing** — merging all steady cycles into one phase so batch
  kernels see the maximal firing count — is decided here, from what the
  loop can observe: a single slice, batch closures to run (only a
  batching backend hands any out), tape levels that admit it.
* **Failure** in a threaded slice goes to the caller's ``abort`` object
  (anything with ``trip(exc)``, ``tripped``, ``exception``), which is
  how blocked peers get released.  The loop never imports
  :mod:`repro.multicore` and never names a channel type: flow control is
  a property of the tapes it is handed.

Every backend produces identical outputs and identical performance
counters.  Outputs pushed by the terminal actor are collected and
returned, which is how tests establish that a SIMDized graph computes
exactly what the scalar graph computes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, \
    NamedTuple, Optional, Tuple, Union

from ..graph.actor import FilterSpec, StateVar
from ..graph.builtins import (
    HJoinerSpec,
    HSplitterSpec,
    JoinerSpec,
    SplitKind,
    SplitterSpec,
)
from ..graph.stream_graph import StreamGraph
from ..ir.types import Vector
from ..obs.tracer import Tracer, ensure_tracer
from ..perf import events as ev
from ..perf.counters import PerActorCounters, PerfCounters
from ..schedule.steady_state import Schedule, build_schedule
from ..simd.machine import CORE_I7, MachineDescription
from .backends import resolve_backend
from .errors import StreamRuntimeError
from .interpreter import ActorRuntime
from .tape import Tape
from .values import splat


@dataclass
class ExecutionResult:
    """Outputs plus per-phase performance counters."""

    graph_name: str
    iterations: int
    #: items pushed by the terminal actor during the steady iterations.
    outputs: List[Any]
    #: items pushed during the init (priming) phase.
    init_outputs: List[Any]
    init_counters: PerActorCounters
    steady_counters: PerActorCounters
    schedule: Schedule
    #: name of the execution backend that produced this result.
    backend: str = "interp"
    #: kernel-cache counter deltas for this execution — closure-kernel
    #: stats on the compiled backend, batch-kernel stats (kernels and
    #: refusals) on the vector backend; ``None`` for backends without a
    #: kernel cache — keys: ``lookups``, ``hits``, ``misses``,
    #: ``compiled``, ``size`` (kernels resident after the run).
    kernel_cache: Optional[Dict[str, int]] = None
    #: vector backend only: per-actor vectorization decision — ``"vector"``
    #: (batch array kernel), ``"vector:scan"`` (batch kernel whose state
    #: recurrence ``s ← (a·s + c) % m`` runs as an int64 jump-ahead scan),
    #: ``"vector:mover"`` (batched native mover), or
    #: ``"fallback: <reason>"`` (replays on the interpreter).  When a
    #: batched actor's ndarray tape degraded to list storage mid-run — a
    #: payload of another kind than its first value: an int on a float
    #: tape or the reverse, a ragged or non-float vector, a scalar on a
    #: vector tape or a vector on a scalar one, non-numeric elements, ints
    #: beyond int64 — the status is suffixed
    #: ``" (tape fallback: <reason>)"`` (``macross run`` prints one
    #: ``tape fallback`` line per such actor).  A vector of ``W`` floats
    #: is a float64 row and does not degrade.  ``None`` for other
    #: backends.
    vectorized: Optional[Dict[int, str]] = None
    #: firings, init and steady phases alike, executed through a batched
    #: fast path (array kernel or batched mover); 0 for non-batching
    #: backends.
    batched_firings: int = 0

    def cycles_per_output(self, machine: MachineDescription) -> float:
        """Steady-state cycles per produced item — the throughput metric all
        speedup comparisons use (immune to Equation (1) rescaling, which
        changes work-per-iteration)."""
        if not self.outputs:
            raise StreamRuntimeError("graph produced no steady-state output")
        return self.steady_cycles(machine) / len(self.outputs)

    def steady_cycles(self, machine: MachineDescription) -> float:
        """Modeled cycles for the measured steady iterations."""
        return self.steady_counters.cycles(machine)

    def actor_cycles(self, machine: MachineDescription) -> Dict[int, float]:
        return self.steady_counters.cycles_by_actor(machine)

    def firings_by_actor(self) -> Dict[int, int]:
        """Steady-state firing count per actor (from the ``fire`` event
        every backend charges once per firing)."""
        return {actor_id: counters["fire"]
                for actor_id, counters in
                self.steady_counters.by_actor.items()}


def state_initial_value(var: StateVar, simd_width: int) -> Any:
    """Materialise a state variable's initial runtime value."""
    width = var.type.width if isinstance(var.type, Vector) else 0
    if var.is_array:
        if isinstance(var.init, tuple):
            items = list(var.init)
            if len(items) != var.size:
                raise StreamRuntimeError(
                    f"state {var.name}: initialiser length {len(items)} != "
                    f"size {var.size}")
        else:
            items = [var.init] * var.size
        if width:
            return [list(item) if isinstance(item, tuple) else splat(item, width)
                    for item in items]
        return [float(item) for item in items]
    if width:
        if isinstance(var.init, tuple):
            return list(var.init)
        return splat(var.init, width)
    return var.init


def _make_tapes(graph: StreamGraph, backend: Any,
                wrap: Optional[Callable[[int, Any], Any]] = None
                ) -> Dict[int, Any]:
    """One runtime tape per graph edge, in the storage ``backend`` prefers
    (the vector backend substitutes ndarray-native ``NdTape``), with the
    edge's feedback-loop delay items preloaded.  ``wrap(tape id, tape)``
    may put an edge's preloaded tape behind something else with the tape
    interface — the parallel runtime's bounded channels on cut edges."""
    tape_cls = getattr(resolve_backend(backend), "tape_class", Tape)
    tapes: Dict[int, Any] = {}
    for tid, edge in graph.tapes.items():
        tape = tape_cls(f"tape{tid}")
        for item in edge.initial:
            tape.push(item)
        tapes[tid] = tape if wrap is None else wrap(tid, tape)
    return tapes


class _GraphRun:
    """All mutable state of one slice of an execution: the ``actors`` it
    sets up and fires, over a ``tapes`` map (see :func:`_make_tapes`) it
    shares with every other slice of the same run.  A sequential run is
    the one slice that holds every actor."""

    def __init__(self, graph: StreamGraph, schedule: Schedule,
                 machine: MachineDescription, backend: Any,
                 tapes: Mapping[int, Any], actors: Iterable[int]) -> None:
        backend = resolve_backend(backend)
        self.graph = graph
        self.schedule = schedule
        self.machine = machine
        self.backend = backend
        #: tape implementation the backend prefers (used for the collector).
        self.tape_cls = getattr(backend, "tape_class", Tape)
        self.tapes = tapes
        self.local_actors = frozenset(actors)
        self.collector: Optional[Tape] = None
        #: filter actors by id (``Interpreter``, or ``CompiledActor`` on
        #: the compiled backend).
        self.actors: Dict[int, Any] = {}
        #: per-actor firing closures (filters and movers alike).
        self.fire_fns: Dict[int, Callable[[], None]] = {}
        #: batched firing closures ``fn(n)`` equivalent to ``n`` single
        #: firings, returning whether the batched fast path actually ran
        #: (vector backend only; every entry point re-validates its tapes
        #: — including cross-core ``Channel`` tapes — at runtime).
        self.batch_fns: Dict[int, Callable[[int], bool]] = {}
        #: per-actor vectorization decisions, filters and movers alike
        #: (vector backend only).
        self.vector_status: Dict[int, str] = {}
        #: firings executed through a batched fast path (array kernel or
        #: batched mover) rather than per-firing replay.
        self.batched_firings = 0
        self.counters = PerActorCounters()
        self._setup_actors()

    def _setup_actors(self) -> None:
        outputs = self.graph.output_actors()
        if len(outputs) > 1:
            raise StreamRuntimeError("multiple dangling outputs")
        collector_owner = outputs[0].id if outputs else None

        for actor in self.graph.actors.values():
            if actor.id not in self.local_actors:
                continue
            spec = actor.spec
            if not isinstance(spec, FilterSpec):
                mover = self.backend.make_mover(self, actor)
                if mover is None:
                    mover = self._generic_mover(actor.id, spec)
                self.fire_fns[actor.id] = mover
                make_batch = getattr(self.backend, "make_batch_mover", None)
                if make_batch is not None:
                    batch = make_batch(self, actor, mover)
                    if batch is not None:
                        self.batch_fns[actor.id] = batch
                        self.vector_status[actor.id] = "vector:mover"
                continue
            in_tape = self.graph.input_tape(actor.id)
            out_tape = self.graph.output_tape(actor.id)
            runtime = ActorRuntime(
                actor_id=actor.id,
                simd_width=self.machine.simd_width,
                counters=self.counters.for_actor(actor.id),
                state={var.name: state_initial_value(var, self.machine.simd_width)
                       for var in spec.state},
                input=self.tapes[in_tape.id] if in_tape else None,
                output=self.tapes[out_tape.id] if out_tape else None,
                in_lane_ordered=bool(in_tape and in_tape.lane_ordered),
                out_lane_ordered=bool(out_tape and out_tape.lane_ordered),
                has_sagu=self.machine.has_sagu,
            )
            if actor.id == collector_owner:
                self.collector = self.tape_cls("collector")
                runtime.output = self.collector
            runner = self.backend.make_filter_actor(
                runtime, spec, in_tape, out_tape)
            if spec.init_body:
                runner.run_init(spec.init_body)
            self.actors[actor.id] = runner
            work_body = spec.work_body

            def fire_filter(_runner=runner, _body=work_body) -> None:
                _runner.run_work(_body)
            self.fire_fns[actor.id] = fire_filter
            make_batch = getattr(self.backend, "make_batch_filter", None)
            if make_batch is not None:
                batch, self.vector_status[actor.id] = make_batch(
                    runtime, spec, in_tape, fire_filter)
                if batch is not None:
                    self.batch_fns[actor.id] = batch

    def _generic_mover(self, actor_id: int, spec: Any) -> Callable[[], None]:
        """Fallback mover firing through the generic ``_fire_*`` paths."""
        if isinstance(spec, SplitterSpec):
            method = self._fire_splitter
        elif isinstance(spec, JoinerSpec):
            method = self._fire_joiner
        elif isinstance(spec, HSplitterSpec):
            method = self._fire_hsplitter
        elif isinstance(spec, HJoinerSpec):
            method = self._fire_hjoiner
        else:
            raise StreamRuntimeError(f"cannot fire {spec!r}")
        return lambda: method(actor_id, spec)

    # -- firing ---------------------------------------------------------------
    def fire(self, actor_id: int) -> None:
        self.fire_fns[actor_id]()

    def _scalar_read(self, counters: PerfCounters, tape_id: int) -> Any:
        counters.add(ev.SCALAR_LOAD)
        edge = self.graph.tapes[tape_id]
        if edge.lane_ordered:
            counters.add(ev.SAGU if self.machine.has_sagu else ev.ADDR)
        return self.tapes[tape_id].pop()

    def _scalar_write(self, counters: PerfCounters, tape_id: int,
                      value: Any) -> None:
        counters.add(ev.SCALAR_STORE)
        edge = self.graph.tapes[tape_id]
        if edge.lane_ordered:
            counters.add(ev.SAGU if self.machine.has_sagu else ev.ADDR)
        self.tapes[tape_id].push(value)

    def _fire_splitter(self, actor_id: int, spec: SplitterSpec) -> None:
        counters = self.counters.for_actor(actor_id)
        counters.add(ev.FIRE)
        in_tape = self.graph.in_tapes(actor_id)[0]
        outs = self.graph.out_tapes(actor_id)
        if spec.kind is SplitKind.DUPLICATE:
            value = self._scalar_read(counters, in_tape.id)
            for tape in outs:
                self._scalar_write(counters, tape.id, value)
        else:
            for tape in outs:
                for _ in range(spec.weights[tape.src_port]):
                    value = self._scalar_read(counters, in_tape.id)
                    self._scalar_write(counters, tape.id, value)

    def _fire_joiner(self, actor_id: int, spec: JoinerSpec) -> None:
        counters = self.counters.for_actor(actor_id)
        counters.add(ev.FIRE)
        ins = self.graph.in_tapes(actor_id)
        out = self.graph.out_tapes(actor_id)
        out_tape = out[0] if out else None
        for tape in ins:
            for _ in range(spec.weights[tape.dst_port]):
                value = self._scalar_read(counters, tape.id)
                if out_tape is not None:
                    self._scalar_write(counters, out_tape.id, value)

    def _fire_hsplitter(self, actor_id: int, spec: HSplitterSpec) -> None:
        counters = self.counters.for_actor(actor_id)
        counters.add(ev.FIRE)
        in_tape = self.graph.in_tapes(actor_id)[0]
        out_tape = self.graph.out_tapes(actor_id)[0]
        if spec.kind is SplitKind.DUPLICATE:
            for _ in range(spec.weight):
                value = self._scalar_read(counters, in_tape.id)
                counters.add(ev.SPLAT)
                counters.add(ev.VECTOR_STORE)
                self.tapes[out_tape.id].push(splat(value, spec.width))
        else:
            chunk = [self._scalar_read(counters, in_tape.id)
                     for _ in range(spec.width * spec.weight)]
            for j in range(spec.weight):
                counters.add(ev.PACK, spec.width)
                counters.add(ev.VECTOR_STORE)
                self.tapes[out_tape.id].push(
                    [chunk[k * spec.weight + j] for k in range(spec.width)])

    def _fire_hjoiner(self, actor_id: int, spec: HJoinerSpec) -> None:
        counters = self.counters.for_actor(actor_id)
        counters.add(ev.FIRE)
        in_tape = self.graph.in_tapes(actor_id)[0]
        outs = self.graph.out_tapes(actor_id)
        vectors = []
        for _ in range(spec.weight):
            counters.add(ev.VECTOR_LOAD)
            vectors.append(self.tapes[in_tape.id].pop())
        for k in range(spec.width):
            for j in range(spec.weight):
                counters.add(ev.UNPACK)
                if outs:
                    self._scalar_write(counters, outs[0].id, vectors[j][k])

    # -- phases ----------------------------------------------------------------
    def run_phase(self, phase) -> None:
        fire_fns = self.fire_fns
        batch_fns = self.batch_fns
        if batch_fns:
            for actor_id, firings in phase:
                batch = batch_fns.get(actor_id)
                # Batch even single firings: parallel slices run one steady
                # iteration at a time, and a per-core actor often fires once
                # per iteration — the batched path is still the one that
                # does bulk (blocking) channel I/O.
                if batch is not None and firings > 0:
                    if batch(firings):
                        self.batched_firings += firings
                else:
                    fn = fire_fns[actor_id]
                    for _ in range(firings):
                        fn()
            return
        for actor_id, firings in phase:
            fn = fire_fns[actor_id]
            for _ in range(firings):
                fn()

    def drain_collector(self) -> List[Any]:
        """Items the terminal actor has pushed since the last drain."""
        return self.collector.drain() if self.collector is not None else []

    def reset_counters(self) -> PerActorCounters:
        """Start a fresh counting phase: install an empty counter set,
        re-point every filter actor at it, and return the old one.
        (Mover closures re-fetch ``self.counters`` per firing.)"""
        old = self.counters
        self.counters = PerActorCounters()
        for actor_id, runner in self.actors.items():
            runner.rt.counters = self.counters.for_actor(actor_id)
        return old


def _annotate_tape_fallbacks(run: _GraphRun,
                             vectorized: Dict[int, str]) -> None:
    """Suffix batched actors' statuses with the degrade reason of any
    adjacent ndarray tape that fell back to list storage mid-run — a
    payload of another kind than the tape's first value (a float on an
    int tape or the reverse, a scalar/vector mix-up, a ragged or
    non-float vector, a non-numeric element, an int beyond int64) — the
    record the dtype-edge tests and the obs layer read."""
    for actor_id, status in vectorized.items():
        if not status.startswith("vector"):
            continue
        reasons: List[str] = []
        for edge in (*run.graph.in_tapes(actor_id),
                     *run.graph.out_tapes(actor_id)):
            reason = getattr(run.tapes.get(edge.id), "degrade_reason", None)
            if reason and reason not in reasons:
                reasons.append(reason)
        runner = run.actors.get(actor_id)
        if runner is not None and run.collector is not None \
                and runner.rt.output is run.collector:
            reason = getattr(run.collector, "degrade_reason", None)
            if reason and reason not in reasons:
                reasons.append(reason)
        if reasons:
            vectorized[actor_id] = (
                f"{status} (tape fallback: {'; '.join(reasons)})")


def _merged_phase_admissible(run: _GraphRun, phase, iterations: int) -> bool:
    """Whether ``iterations`` steady cycles can run as ONE phase with every
    entry's firings multiplied — i.e. whether each actor, fired all at
    once in schedule order, still finds its full input window on its tapes.

    Simulated with the *declared* rates (the same ones the scheduler
    balances); a ``False`` answer just keeps the per-cycle loop.  Batch
    kernels and movers re-check availability at runtime regardless, so an
    optimistic ``True`` on a rate-lying graph degrades to per-firing
    execution rather than to divergence.
    """
    graph = run.graph
    levels = {tid: len(tape) for tid, tape in run.tapes.items()}
    for actor_id, firings in phase:
        n = firings * iterations
        try:
            reads = [(e.id, graph.pop_rate(actor_id, e.dst_port),
                      graph.peek_rate(actor_id, e.dst_port))
                     for e in graph.in_tapes(actor_id)]
            writes = [(e.id, graph.push_rate(actor_id, e.src_port))
                      for e in graph.out_tapes(actor_id)]
        except TypeError:   # unknown spec: no declared rates to simulate
            return False
        for tid, pop, window in reads:
            if tid not in levels:
                return False
            if n and levels[tid] < (n - 1) * pop + window:
                return False
            levels[tid] -= n * pop
        for tid, push in writes:
            if tid in levels:
                levels[tid] += n * push
    return True


class _Phases(NamedTuple):
    """What one slice's trip through the phase sequence produced."""

    init_outputs: List[Any]
    init_counters: PerActorCounters
    outputs: List[Any]
    steady_counters: PerActorCounters


def _run_phases(run: _GraphRun, iterations: int, tracer: Tracer,
                core: Optional[int] = None) -> _Phases:
    """Take one slice through init → drain → fresh counters → steady ×
    ``iterations`` → drain, firing its share of the schedule.  ``core``
    is ``None`` for the only slice of a run (spans ``runtime.init`` /
    ``runtime.steady``, steady cycles coalesced when admissible), else
    the number of one slice among several (spans ``core<N>.*``)."""
    machine = run.machine
    label, cat = ("runtime",) * 2 if core is None else (f"core{core}", "core")
    init, steady = (tuple(entry for entry in phase
                          if entry[0] in run.local_actors)
                    for phase in (run.schedule.init, run.schedule.steady))
    with tracer.span(f"{label}.init", cat=cat) as sp:
        run.run_phase(init)
        init_outputs = run.drain_collector()
        init_counters = run.reset_counters()
        if tracer.enabled:
            sp.add(outputs=len(init_outputs),
                   modeled_cycles=round(init_counters.cycles(machine), 1),
                   firings=sum(c["fire"] for c in
                               init_counters.by_actor.values()))
    with tracer.span(f"{label}.steady", cat=cat,
                     iterations=iterations) as sp:
        # A run with batch closures merges all steady cycles into one
        # phase when tape levels admit it, so batch kernels see the
        # maximal firing count (outputs and counters are identical either
        # way).
        coalesced = bool(core is None and iterations > 1 and run.batch_fns
                         and _merged_phase_admissible(run, steady,
                                                      iterations))
        if coalesced:
            run.run_phase(tuple((actor_id, firings * iterations)
                                for actor_id, firings in steady))
        else:
            for _ in range(iterations):
                run.run_phase(steady)
        outputs = run.drain_collector()
        if tracer.enabled:
            sp.add(outputs=len(outputs), coalesced=coalesced,
                   modeled_cycles=round(run.counters.cycles(machine), 1),
                   firings=sum(c["fire"] for c in
                               run.counters.by_actor.values()))
    return _Phases(init_outputs, init_counters, outputs, run.counters)


def _union(bags: List[PerActorCounters]) -> PerActorCounters:
    """Union of disjoint per-slice bags (slices never share an actor); a
    single slice's bag is returned as is."""
    if len(bags) == 1:
        return bags[0]
    merged = PerActorCounters()
    for counters in bags:
        for actor_id, bag in counters.by_actor.items():
            merged.for_actor(actor_id).merge(bag)
    return merged


def _run_slices(graph: StreamGraph, schedule: Schedule,
                machine: MachineDescription, be: Any,
                tapes: Mapping[int, Any],
                slices: Mapping[int, Iterable[int]],
                iterations: int, tracer: Tracer, abort: Any = None
                ) -> Tuple[Dict[str, Any], Dict[int, _Phases], float]:
    """The run loop (see the module docstring).  ``slices`` maps a core
    number to the actors it fires; ``abort`` is needed only when there
    is more than one.

    Returns the :class:`ExecutionResult` fields, each slice's
    :class:`_Phases` by core, and the wall seconds the phases took
    (set-up excluded)."""
    cache = getattr(be, "cache", None)
    with tracer.span("runtime.setup", cat="runtime") as sp:
        cache_before = cache.stats.snapshot() if cache is not None else None
        runs = {core: _GraphRun(graph, schedule, machine, be, tapes, actors)
                for core, actors in slices.items()}
        kernel_cache: Optional[Dict[str, int]] = None
        if cache is not None:
            kernel_cache = cache.stats.delta(cache_before)
            kernel_cache["size"] = len(cache)
            sp.add(kernel_cache=dict(kernel_cache))
        sp.add(actors=len(graph.actors), tapes=len(graph.tapes))

    parts: Dict[int, _Phases] = {}
    start = time.perf_counter()
    if len(runs) > 1:
        def worker(core: int, run: _GraphRun) -> None:
            try:
                with tracer.span(f"core{core}", cat="core",
                                 actors=len(run.local_actors)):
                    parts[core] = _run_phases(run, iterations, tracer, core)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                # First failure wins; it also unblocks the peers, whose
                # own aborted waits then trip nothing.
                abort.trip(exc)

        threads = [threading.Thread(target=worker, args=item,
                                    name=f"macross-core{item[0]}",
                                    daemon=True)
                   for item in sorted(runs.items())]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if abort.tripped:
            raise abort.exception
    else:
        for core, run in runs.items():      # the calling thread is the core
            parts[core] = _run_phases(run, iterations, tracer)
    wall = time.perf_counter() - start

    vectorized: Optional[Dict[int, str]] = None
    if be.name == "vector":
        vectorized = {}
        for run in runs.values():
            statuses = dict(run.vector_status)
            _annotate_tape_fallbacks(run, statuses)
            vectorized.update(statuses)
    parts = dict(sorted(parts.items()))     # workers finish in any order
    # At most one slice owns the collector: its outputs are the run's.
    sink = next((parts[core] for core, run in runs.items()
                 if run.collector is not None), None)
    fields = dict(
        graph_name=graph.name,
        iterations=iterations,
        outputs=sink.outputs if sink else [],
        init_outputs=sink.init_outputs if sink else [],
        init_counters=_union([part.init_counters
                              for part in parts.values()]),
        steady_counters=_union([part.steady_counters
                                for part in parts.values()]),
        schedule=schedule,
        backend=be.name,
        kernel_cache=kernel_cache,
        vectorized=vectorized,
        batched_firings=sum(run.batched_firings for run in runs.values()),
    )
    if tracer.enabled:
        # Per-actor attribution as instant events: firing counts and
        # modeled cycles per actor, so the Chrome trace carries the
        # hottest-actor breakdown alongside the phase spans.
        steady = fields["steady_counters"]
        for actor_id, cycles in steady.cycles_by_actor(machine).items():
            name = (graph.actors[actor_id].name
                    if actor_id in graph.actors else f"actor{actor_id}")
            extra = {}
            if vectorized is not None and actor_id in vectorized:
                extra["vectorized"] = vectorized[actor_id]
            tracer.event(f"actor.{name}", cat="actor",
                         cycles=round(cycles, 1),
                         firings=steady.by_actor[actor_id]["fire"], **extra)
    return fields, parts, wall


def _ensure_schedule(graph: StreamGraph, schedule: Optional[Schedule],
                     tracer: Tracer) -> Schedule:
    if schedule is not None:
        return schedule
    with tracer.span("runtime.schedule", cat="runtime", graph=graph.name):
        return build_schedule(graph)


def execute(graph: StreamGraph,
            schedule: Optional[Schedule] = None,
            *,
            machine: MachineDescription = CORE_I7,
            iterations: int = 8,
            backend: Any = "interp",
            tracer: Optional[Tracer] = None,
            cores: int = 1,
            partitioner: Union[str, Callable, None] = None,
            stall_timeout: float = 30.0) -> ExecutionResult:
    """Run ``iterations`` steady-state cycles of ``graph`` and return
    collected outputs plus performance counters.

    A sequential run is the one-slice case of the run loop: plain tapes,
    every actor in one slice, fired on the calling thread.

    ``backend`` selects the execution engine: ``"interp"`` (tree-walking
    interpreter, the reference), ``"compiled"`` (cached closure kernels),
    ``"vector"`` (numpy batch kernels over many firings, needs numpy) or
    a backend object — same outputs and counters on all of them.

    ``tracer`` (optional) records runtime spans — setup (with kernel
    cache deltas on a caching backend), the init phase, and the steady
    phase — each with output counts and modeled-cycle attribution.

    ``cores`` > 1 (or an explicit ``partitioner``) hands the run to
    :func:`repro.multicore.parallel.parallel_execute`, the other front
    door of the same loop: the graph is partitioned across ``cores``
    worker threads (``partitioner`` is a callable or a name registered
    with the planning subsystem — ``"lpt"``, ``"contiguous"``, ``"opt"``,
    … — resolved via :func:`repro.plan.get_partitioner`), cut tapes
    become bounded blocking channels, and the returned
    :class:`~repro.multicore.parallel.ParallelExecutionResult` carries
    per-core counters and channel statistics on top of the (identical)
    sequential outputs and aggregate counters.  ``stall_timeout``
    (seconds) goes with it: a cross-core stall longer than the timeout
    raises :class:`~repro.multicore.channels.ChannelStallTimeout`
    carrying the stalled channel's name, side, and occupancy — the
    serving layer's hang diagnostics.  A sequential run has no channel
    to stall on and ignores it.
    """
    if cores < 1:
        raise StreamRuntimeError(f"cores must be >= 1, got {cores}")
    if cores > 1 or partitioner is not None:
        # Lazy import: repro.multicore.parallel imports this module.
        from ..multicore.parallel import parallel_execute
        return parallel_execute(graph, schedule, machine=machine,
                                iterations=iterations, backend=backend,
                                tracer=tracer, cores=cores,
                                partitioner=partitioner,
                                stall_timeout=stall_timeout)
    tracer = ensure_tracer(tracer)
    schedule = _ensure_schedule(graph, schedule, tracer)
    be = resolve_backend(backend)
    with tracer.span("execute", cat="runtime", graph=graph.name,
                     backend=be.name, machine=machine.name,
                     iterations=iterations) as exec_span:
        fields, _, _ = _run_slices(graph, schedule, machine, be,
                                   _make_tapes(graph, be),
                                   {0: graph.actors}, iterations, tracer)
        result = ExecutionResult(**fields)
        if tracer.enabled:
            exec_span.add(outputs=len(result.outputs),
                          modeled_cycles=round(
                              result.steady_cycles(machine), 1))
    return result
