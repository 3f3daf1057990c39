"""Multi-oracle differential harness.

One generated program is checked through the cross-product of

* **SIMDization option sets** — scalar, single-actor, vertical,
  horizontal, and the full cost-model-arbitrated ``auto`` configuration;
* **machines** — every target in the registry
  (:func:`repro.simd.machine.list_targets`): registering a new target
  automatically puts it under fuzz.  Names are sorted, so campaigns stay
  seed-reproducible;
* **execution backends** — the tree-walking interpreter, the closure
  compiler, and (when numpy is installed) the vectorized array backend
  (:func:`default_backends`).

Oracles, in increasing strength:

1. *structural* — the transformed graph still validates;
2. *schedule sanity* — the repetition vector balances, every actor
   fires, and the steady phase fires each actor exactly its repetition;
3. *tape conservation* — after the init phase, every steady-state cycle
   returns every internal tape to the same occupancy (SDF's defining
   invariant);
4. *output rate* — the terminal actor produces ``iterations × reps ×
   push`` items;
5. *stream equivalence* — transformed outputs are a bit-identical prefix
   extension of the scalar reference stream (SIMDized graphs produce
   more items per steady iteration, never different ones);
6. *backend equivalence* — interpreter and compiled backend agree on
   outputs, init outputs, and per-actor performance-event bags,
   event-for-event.

Any violation is reported as a :class:`Divergence`; the shrinker then
minimizes the offending program description against the same oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..graph.flatten import flatten
from ..graph.stream_graph import StreamGraph
from ..graph.validate import collect_problems
from ..obs import NULL_TRACER, Tracer, pass_trail
from ..perf.counters import counter_bags
from ..runtime.backends import resolve_backend
from ..runtime.executor import ExecutionResult, _GraphRun, _make_tapes, \
    _run_phases, execute
from ..schedule.rates import check_balanced
from ..schedule.steady_state import Schedule, build_schedule
from ..simd.machine import CORE_I7, MachineDescription, get_target, \
    list_targets
from ..simd.pipeline import MacroSSOptions, SCALAR_OPTIONS, compile_graph
from .descriptions import ProgramDesc, materialize

#: SIMDization paths under test (§3.1–§3.4 + the §3.5 arbitration).
OPTION_SETS: Dict[str, MacroSSOptions] = {
    "scalar": SCALAR_OPTIONS,
    "single": MacroSSOptions(vertical=False, horizontal=False),
    "vertical": MacroSSOptions(horizontal=False),
    "horizontal": MacroSSOptions(single_actor=False, vertical=False),
    "auto": MacroSSOptions(),
}


def default_machines() -> Dict[str, MachineDescription]:
    """The fuzz machine axis: every registered target, in sorted-name
    order (sorted ⇒ config enumeration, and therefore campaign results,
    are reproducible for a given seed and registry state).

    Computed per campaign rather than at import time so targets
    registered later are fuzzed automatically.
    """
    return {name: get_target(name) for name in list_targets()}


def default_backends() -> Tuple[str, ...]:
    """The fuzz backend axis: every non-reference execution backend
    available in this environment.  The vector backend joins the matrix
    automatically when numpy is installed (each backend is differentially
    checked against the interpreter reference)."""
    from ..runtime.vector.np_compat import HAVE_NUMPY
    if HAVE_NUMPY:
        return ("compiled", "vector")
    return ("compiled",)

#: Steady iterations for the scalar reference / each transformed run.
BASELINE_ITERATIONS = 2
CHECK_ITERATIONS = 1

#: Optional hook type: ``(graph, config_label) -> graph`` applied to every
#: *transformed* graph before execution.  Tests inject miscompiles here to
#: prove the oracles catch them.
GraphTransform = Callable[[StreamGraph, str], StreamGraph]


@dataclass(frozen=True)
class Divergence:
    """One oracle violation for one (options, machine, backend) config."""

    kind: str       # validate | schedule | tape | rate | output | backend | crash
    config: str     # e.g. "auto/core-i7+sagu/compiled"
    detail: str
    #: Algorithm-1 pass trail of the compile that produced the diverging
    #: graph (pass names + decision summaries, from the per-config compile
    #: trace) — empty when the divergence predates compilation.
    pass_trail: Tuple[str, ...] = ()

    def __str__(self) -> str:
        # Single-line on purpose: callers embed this in log lines.  The
        # pass trail is printed separately by the CLI / corpus tooling.
        return f"[{self.kind}] {self.config}: {self.detail}"


def _run_checked(graph: StreamGraph, schedule: Schedule,
                 machine: MachineDescription, iterations: int
                 ) -> Tuple[ExecutionResult, Optional[str]]:
    """Run ``graph`` on the interpreter through the executor's phase
    sequence, additionally checking tape conservation after every steady
    cycle.

    Returns ``(result, tape_violation_or_None)``."""
    be = resolve_backend("interp")
    run = _GraphRun(graph, schedule, machine, be, _make_tapes(graph, be),
                    graph.actors)
    # Tape occupancies after each phase: init first, then every steady
    # cycle (the interpreter has no batch closures, so it never merges
    # cycles into one phase).
    levels: List[Dict[int, int]] = []
    run_phase = run.run_phase

    def run_and_measure(phase) -> None:
        run_phase(phase)
        levels.append({tid: len(tape) for tid, tape in run.tapes.items()})
    run.run_phase = run_and_measure
    phases = _run_phases(run, iterations, NULL_TRACER)
    violation: Optional[str] = None
    for cycle, now in enumerate(levels[1:]):
        if now != levels[0]:
            deltas = {tid: (levels[0][tid], now[tid])
                      for tid in now if now[tid] != levels[0][tid]}
            violation = (f"steady cycle {cycle}: tape occupancies changed "
                         f"{deltas}")
            break
    result = ExecutionResult(
        graph_name=graph.name, iterations=iterations,
        outputs=phases.outputs, init_outputs=phases.init_outputs,
        init_counters=phases.init_counters,
        steady_counters=phases.steady_counters, schedule=schedule,
        backend=be.name)
    return result, violation


def _schedule_problems(graph: StreamGraph, schedule: Schedule) -> List[str]:
    problems: List[str] = []
    try:
        check_balanced(graph, schedule.reps)
    except Exception as exc:  # RateError
        problems.append(f"unbalanced repetition vector: {exc}")
    if set(schedule.reps) != set(graph.actors):
        problems.append("repetition vector does not cover all actors")
    bad = {aid: rep for aid, rep in schedule.reps.items() if rep < 1}
    if bad:
        problems.append(f"non-positive repetitions: {bad}")
    fired: Dict[int, int] = {}
    for actor_id, count in schedule.steady:
        fired[actor_id] = fired.get(actor_id, 0) + count
    if fired != dict(schedule.reps):
        problems.append(
            f"steady phase firings {fired} != repetition vector "
            f"{dict(schedule.reps)}")
    return problems


@dataclass
class CheckReport:
    """Outcome of checking one program across the config matrix."""

    divergences: List[Divergence] = field(default_factory=list)
    configs_checked: int = 0
    executions: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


def check_graph(graph: StreamGraph,
                *,
                graph_transform: Optional[GraphTransform] = None,
                option_sets: Optional[Dict[str, MacroSSOptions]] = None,
                machines: Optional[Dict[str, MachineDescription]] = None,
                backends: Optional[Tuple[str, ...]] = None,
                stop_on_first: bool = True) -> CheckReport:
    """Run the full oracle matrix on one scalar flat graph.

    ``backends`` are the non-reference execution backends to check
    against the interpreter (default :func:`default_backends`)."""
    report = CheckReport()
    option_sets = option_sets if option_sets is not None else OPTION_SETS
    machines = machines if machines is not None else default_machines()
    backends = backends if backends is not None else default_backends()

    def diverge(kind: str, config: str, detail: str,
                trail: Tuple[str, ...] = ()) -> bool:
        report.divergences.append(
            Divergence(kind, config, str(detail)[:500], trail))
        return stop_on_first

    problems = collect_problems(graph)
    if problems:
        diverge("validate", "source", "; ".join(problems))
        return report

    # Scalar reference stream (interpreter, Core-i7).
    try:
        base_schedule = build_schedule(graph)
        baseline, tape_bad = _run_checked(
            graph, base_schedule, CORE_I7, BASELINE_ITERATIONS)
        report.executions += 1
    except Exception as exc:
        diverge("crash", "baseline", f"{type(exc).__name__}: {exc}")
        return report
    if tape_bad and diverge("tape", "baseline", tape_bad):
        return report
    if not baseline.outputs:
        diverge("rate", "baseline", "reference run produced no output")
        return report

    for mach_name, machine in machines.items():
        for opt_name, options in option_sets.items():
            if opt_name == "scalar" and machine.name != CORE_I7.name:
                continue  # structurally identical to core-i7/scalar
            config = f"{opt_name}/{mach_name}"
            # Per-config compile trace: a divergence below carries the
            # Algorithm-1 pass trail that produced the diverging graph.
            ctracer = Tracer()
            try:
                compiled = compile_graph(graph, machine, options,
                                         tracer=ctracer)
                tgraph = compiled.graph
                if graph_transform is not None:
                    tgraph = graph_transform(tgraph, config)
            except Exception as exc:
                if diverge("crash", config, f"{type(exc).__name__}: {exc}",
                           pass_trail(ctracer)):
                    return report
                continue
            report.configs_checked += 1
            trail = pass_trail(ctracer)

            problems = collect_problems(tgraph)
            if problems:
                if diverge("validate", config, "; ".join(problems), trail):
                    return report
                continue
            try:
                schedule = build_schedule(tgraph)
            except Exception as exc:
                if diverge("schedule", config,
                           f"{type(exc).__name__}: {exc}", trail):
                    return report
                continue
            sched_problems = _schedule_problems(tgraph, schedule)
            if sched_problems:
                if diverge("schedule", config, "; ".join(sched_problems),
                           trail):
                    return report
                continue

            try:
                ref, tape_bad = _run_checked(
                    tgraph, schedule, machine, CHECK_ITERATIONS)
                report.executions += 1
            except Exception as exc:
                if diverge("crash", f"{config}/interp",
                           f"{type(exc).__name__}: {exc}", trail):
                    return report
                continue
            if tape_bad and diverge("tape", f"{config}/interp", tape_bad,
                                    trail):
                return report

            outs = tgraph.output_actors()
            expected = (CHECK_ITERATIONS * schedule.reps[outs[0].id]
                        * outs[0].spec.push if len(outs) == 1 else None)
            if expected is not None and len(ref.outputs) != expected:
                if diverge("rate", f"{config}/interp",
                           f"expected {expected} outputs, "
                           f"got {len(ref.outputs)}", trail):
                    return report

            n = min(len(ref.outputs), len(baseline.outputs))
            if n == 0:
                if diverge("rate", f"{config}/interp",
                           "transformed run produced no output", trail):
                    return report
            elif ref.outputs[:n] != baseline.outputs[:n]:
                first = next(i for i in range(n)
                             if ref.outputs[i] != baseline.outputs[i])
                if diverge("output", f"{config}/interp",
                           f"first mismatch at item {first}: "
                           f"{ref.outputs[first]!r} != "
                           f"{baseline.outputs[first]!r}", trail):
                    return report

            for backend in backends:
                backend_config = f"{config}/{backend}"
                try:
                    got = execute(tgraph, schedule, machine=machine,
                                  iterations=CHECK_ITERATIONS,
                                  backend=backend)
                    report.executions += 1
                except Exception as exc:
                    if diverge("crash", backend_config,
                               f"{type(exc).__name__}: {exc}", trail):
                        return report
                    continue
                if got.outputs != ref.outputs:
                    if diverge("backend", backend_config,
                               "steady outputs differ from interpreter",
                               trail):
                        return report
                if got.init_outputs != ref.init_outputs:
                    if diverge("backend", backend_config,
                               "init outputs differ from interpreter",
                               trail):
                        return report
                if counter_bags(got.steady_counters) != \
                        counter_bags(ref.steady_counters):
                    if diverge("backend", backend_config,
                               "per-actor steady counter bags differ",
                               trail):
                        return report
                if counter_bags(got.init_counters) != \
                        counter_bags(ref.init_counters):
                    if diverge("backend", backend_config,
                               "per-actor init counter bags differ", trail):
                        return report
    return report


#: SIMDization paths exercised by the parallel-parity oracle (the full
#: arbitration plus the scalar baseline — the two ends of the spectrum).
PARALLEL_OPTION_SETS: Dict[str, MacroSSOptions] = {
    "scalar": SCALAR_OPTIONS,
    "auto": MacroSSOptions(),
}

#: Worker counts the parallel-parity oracle runs at.
PARALLEL_CORES: Tuple[int, ...] = (1, 2, 4)

#: Partitioning strategies the parallel-parity oracle runs at.  ``lpt``
#: is the runtime default; ``opt`` routes every generated program through
#: the branch-and-bound planner, so planner-produced partitions (and the
#: capacity plans they imply) are fuzzed for output parity too.
PARALLEL_PARTITIONERS: Tuple[str, ...] = ("lpt", "opt")


def check_parallel(graph: StreamGraph,
                   *,
                   cores: Tuple[int, ...] = PARALLEL_CORES,
                   option_sets: Optional[Dict[str, MacroSSOptions]] = None,
                   machines: Optional[Dict[str, MachineDescription]] = None,
                   backends: Optional[Tuple[str, ...]] = None,
                   partitioners: Tuple[str, ...] = PARALLEL_PARTITIONERS,
                   iterations: int = 2,
                   stop_on_first: bool = True) -> CheckReport:
    """Parallel-parity oracle: the thread-based multicore runtime must be
    *event-identical* to the sequential executor.

    For every (options, machine, backend) config the scalar graph is
    compiled, executed sequentially, then executed through
    :func:`repro.multicore.parallel.parallel_execute` at each worker
    count — outputs, init outputs, and per-actor init/steady counter bags
    must match exactly.  Any mismatch (or crash, deadlock, channel
    timeout) is reported as a ``kind="parallel"`` divergence.

    ``backends`` defaults to the interpreter plus every installed
    non-reference backend (:func:`default_backends`) — with numpy present
    that includes ``"vector"``, exercising batched channel I/O and
    ndarray tapes across cores.

    ``partitioners`` adds a planning axis: each registered name is
    resolved through :func:`repro.plan.get_partitioner` per machine, so
    the ``opt`` entry fuzzes branch-and-bound partitions (and their
    capacity plans) for the same event-identical parity.  At one core
    every partition collapses to the same single-core assignment, so
    only the first partitioner runs there.
    """
    from ..multicore.parallel import parallel_execute

    report = CheckReport()
    option_sets = option_sets if option_sets is not None \
        else PARALLEL_OPTION_SETS
    backends = backends if backends is not None \
        else ("interp",) + default_backends()
    machines = machines if machines is not None else {CORE_I7.name: CORE_I7}

    def diverge(config: str, detail: str, kind: str = "parallel") -> bool:
        report.divergences.append(Divergence(kind, config,
                                             str(detail)[:500]))
        return stop_on_first

    problems = collect_problems(graph)
    if problems:
        diverge("source", "; ".join(problems), kind="validate")
        return report

    for mach_name, machine in machines.items():
        for opt_name, options in option_sets.items():
            config = f"{opt_name}/{mach_name}"
            try:
                tgraph = compile_graph(graph, machine, options).graph
                schedule = build_schedule(tgraph)
            except Exception as exc:
                if diverge(config, f"{type(exc).__name__}: {exc}",
                           kind="crash"):
                    return report
                continue
            for backend in backends:
                bconfig = f"{config}/{backend}"
                try:
                    seq = execute(tgraph, schedule, machine=machine,
                                  iterations=iterations, backend=backend)
                    report.executions += 1
                except Exception as exc:
                    if diverge(bconfig, f"{type(exc).__name__}: {exc}",
                               kind="crash"):
                        return report
                    continue
                seq_steady = counter_bags(seq.steady_counters)
                seq_init = counter_bags(seq.init_counters)
                for n in cores:
                    # One core: every partitioner degenerates to the same
                    # single-core assignment — checking one is enough.
                    active = partitioners[:1] if n == 1 else partitioners
                    for part_name in active:
                        pconfig = f"{bconfig}/{n}c/{part_name}"
                        report.configs_checked += 1
                        try:
                            par = parallel_execute(
                                tgraph, schedule, machine=machine,
                                iterations=iterations, backend=backend,
                                cores=n, partitioner=part_name)
                            report.executions += 1
                        except Exception as exc:
                            if diverge(pconfig,
                                       f"{type(exc).__name__}: {exc}"):
                                return report
                            continue
                        if par.outputs != seq.outputs:
                            if diverge(pconfig, "steady outputs differ "
                                                "from sequential execute"):
                                return report
                        if par.init_outputs != seq.init_outputs:
                            if diverge(pconfig, "init outputs differ from "
                                                "sequential execute"):
                                return report
                        if counter_bags(par.steady_counters) != seq_steady:
                            if diverge(pconfig,
                                       "per-actor steady counter bags "
                                       "differ from sequential"):
                                return report
                        if counter_bags(par.init_counters) != seq_init:
                            if diverge(pconfig,
                                       "per-actor init counter bags "
                                       "differ from sequential"):
                                return report
    return report


def check_parallel_program(desc: ProgramDesc, **kwargs) -> CheckReport:
    """Materialize ``desc`` and run the parallel-parity oracle on it."""
    try:
        graph = flatten(materialize(desc))
    except Exception as exc:
        report = CheckReport()
        report.divergences.append(Divergence(
            "crash", "materialize", f"{type(exc).__name__}: {exc}"))
        return report
    return check_parallel(graph, **kwargs)


def check_program(desc: ProgramDesc,
                  *,
                  graph_transform: Optional[GraphTransform] = None,
                  option_sets: Optional[Dict[str, MacroSSOptions]] = None,
                  machines: Optional[Dict[str, MachineDescription]] = None,
                  backends: Optional[Tuple[str, ...]] = None,
                  stop_on_first: bool = True) -> CheckReport:
    """Materialize ``desc`` and run the oracle matrix on it."""
    try:
        graph = flatten(materialize(desc))
    except Exception as exc:
        report = CheckReport()
        report.divergences.append(Divergence(
            "crash", "materialize", f"{type(exc).__name__}: {exc}"))
        return report
    return check_graph(graph, graph_transform=graph_transform,
                       option_sets=option_sets, machines=machines,
                       backends=backends, stop_on_first=stop_on_first)
