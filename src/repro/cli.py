"""``macross`` command-line interface.

One sub-command per reproduction surface: the benchmark and target
registries (``list``, ``targets``), the compiler (``compile``, ``dot``),
execution and its profiles (``run``, ``profile``, ``trace``), the
multicore runtime and planner (``multicore``, ``plan``), the fuzzer
(``fuzz``), the serving pool (``serve``, ``loadgen``) and the paper's
figures (``fig10a`` … ``fig13``, ``all``).  ``macross <command> -h``
lists a command's options; :func:`build_parser` defines each of them
once.

Exit codes, decided in one place (:func:`_dispatch`):

* ``0`` — success (``serve`` sessions shed by admission control
  included);
* ``1`` — a wrong or failed answer: SIMDized outputs that diverge from
  the scalar graph's (``run``), a parity mismatch (``multicore``,
  ``serve``), a failed session (``serve``, ``loadgen``), a fuzz finding
  or corpus regression;
* ``2`` — a usage error, reported as one ``error:`` line on stderr: an
  unknown benchmark, pipeline, figure benchmark, target (followed by
  the target listing), partitioner or placement policy, code generation
  refused for the target, or any other runtime error the command
  reports (an infeasible plan, a pool that cannot start); argparse's
  own syntax errors exit 2 too;
* ``3`` — a cross-core channel stalled past its timeout, with the
  channel, side, occupancy and demand on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

_BACKENDS = ("interp", "compiled", "vector")
_FIGURES = ("fig10a", "fig10b", "fig11", "fig12", "fig13")


class _UsageError(Exception):
    """A name no registry knows (exit 2)."""


def main(argv: Optional[Sequence[str]] = None) -> int:
    return _dispatch(build_parser().parse_args(argv))


def build_parser() -> argparse.ArgumentParser:
    """The ``macross`` parser: every command with its flags and defaults."""
    app = argparse.ArgumentParser(add_help=False)
    app.add_argument("benchmark")
    app.add_argument("--sagu", action="store_true",
                     help="target the SAGU-equipped machine")
    machine = argparse.ArgumentParser(add_help=False)
    machine.add_argument("--machine", default=None, metavar="NAME",
                         help="target machine, resolved through the "
                              "registry (see `macross targets`; "
                              "default: core-i7-sse4)")
    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument("--trace", default=None, metavar="FILE",
                       help="write a trace capture to FILE (*.jsonl for "
                            "JSON lines, else Chrome trace_event JSON)")
    pool = argparse.ArgumentParser(add_help=False, parents=[machine, trace])
    pool.add_argument("--workers", type=int, default=2, metavar="N",
                      help="worker processes (default: 2)")
    pool.add_argument("--pipeline", default="full", metavar="NAME",
                      help="compilation pipeline per session "
                           "(default: full)")
    pool.add_argument("--max-queue-depth", type=int, default=8, metavar="D",
                      help="per-worker admission high-water (default: 8)")
    pool.add_argument("--transport", choices=("queue", "shm"),
                      default="shm",
                      help="result wire transport: 'shm' moves large "
                           "output arrays via shared memory, 'queue' "
                           "pickles everything (default: shm)")
    pool.add_argument("--shm-threshold", type=int, default=None,
                      metavar="V",
                      help="min output values before a result uses shm "
                           "(default: 256 or $MACROSS_SHM_THRESHOLD; "
                           "<= 0 forces shm for every packable result)")
    pool.add_argument("--store", default=None, metavar="DIR",
                      help="on-disk kernel store directory (default: "
                           "$MACROSS_KERNEL_STORE, unset = no store)")

    parser = argparse.ArgumentParser(
        prog="macross",
        description="MacroSS (ASPLOS 2010) reproduction driver")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, parents=(), *, backend=None,
                iterations=None):
        p = sub.add_parser(name, help=help, parents=list(parents))
        if iterations is not None:
            p.add_argument("--iterations", type=int, default=iterations)
        if backend is not None:
            p.add_argument("--backend", choices=_BACKENDS, default=backend,
                           help=f"execution engine (default: {backend})")
        p.set_defaults(run=run)
        return p

    command("list", _list, "list available benchmarks")
    command("targets", _targets, "list registered SIMD targets (name, "
            "width, features, aliases)")

    p = command("compile", _compile, "show compilation decisions",
                (app, machine, trace))
    p.add_argument("--cpp", action="store_true",
                   help="emit the generated C++ with intrinsics")
    p.add_argument("--pipeline", default=None, metavar="NAME",
                   help="named ablation pipeline (scalar, single-only, "
                        "no-tape, full, ...)")

    p = command("run", _run, "execute scalar vs macro-SIMDized",
                (app, machine, trace), backend="interp", iterations=4)
    p.add_argument("--cores", type=int, default=1, metavar="N",
                   help="execute on N worker threads via the parallel "
                        "runtime (default: 1 = sequential)")
    p.add_argument("--stall-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="abort a parallel run when a cross-core channel "
                        "stalls this long, reporting which channel "
                        "deadlocked (default: 30)")

    p = command("multicore", _multicore, "Figure 13 makespan model vs the "
                "measured parallel runtime", (app, machine, trace),
                backend="interp", iterations=2)
    p.add_argument("--cores", type=int, action="append", default=None,
                   metavar="N",
                   help="worker-core count to measure (repeatable; "
                        "default: 1 2 4)")
    p.add_argument("--partitioner", default="lpt", metavar="NAME",
                   help="partitioning strategy registered with the "
                        "planning subsystem (lpt, contiguous, opt, ...; "
                        "default: lpt)")

    p = command("plan", _plan, "co-optimize partition shape, channel "
                "buffers, and SIMDization for one benchmark",
                (app, machine), iterations=2)
    p.add_argument("--cores", type=int, default=4, metavar="N",
                   help="core count to plan for (default: 4)")
    p.add_argument("--target", dest="machine", metavar="NAME",
                   help="alias for --machine")
    p.add_argument("--points", type=int, default=8, metavar="K",
                   help="interior Pareto sweep points (default: 8)")
    p.add_argument("--memory-budget", type=int, default=None,
                   metavar="ITEMS",
                   help="plan min-makespan under this channel-memory "
                        "budget instead of min-memory under the LPT "
                        "makespan bound")

    command("profile", _profile, "per-actor cycle breakdown, scalar vs "
            "SIMD", (app, machine), backend="interp")

    p = command("trace", _trace, "per-pass compile trace + hottest actors "
                "at runtime", (app, machine, trace), backend="compiled",
                iterations=4)
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="number of hottest actors to list (default: 10)")

    p = command("dot", _dot, "emit Graphviz DOT for a benchmark",
                (app, machine))
    p.add_argument("--compiled", action="store_true",
                   help="render the macro-SIMDized graph")

    p = command("fuzz", _fuzz, "differential fuzzing of every "
                "SIMDization path", (trace,))
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default: 0)")
    p.add_argument("--budget", type=int, default=100,
                   help="number of generated programs (default: 100)")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="directory for minimized repros; also replayed "
                        "before fuzzing (default: no persistence)")
    p.add_argument("--time-limit", type=float, default=None,
                   metavar="SECONDS",
                   help="stop the campaign after this many seconds")
    p.add_argument("--replay-only", action="store_true",
                   help="only replay the corpus, no new programs")
    p.add_argument("--machine", action="append", default=None,
                   metavar="NAME",
                   help="restrict the machine axis to this registered "
                        "target (repeatable; default: every registered "
                        "target)")
    p.add_argument("--backend", action="append", default=None,
                   choices=_BACKENDS[1:],
                   help="restrict the differential backend axis "
                        "(repeatable; default: compiled plus vector when "
                        "numpy is installed)")

    p = command("serve", _serve, "run benchmark sessions through the "
                "process-sharded worker pool", (pool,),
                backend="compiled", iterations=4)
    p.add_argument("benchmarks", nargs="+",
                   help="benchmark name(s); sessions cycle over them")
    p.add_argument("--sessions", type=int, default=8, metavar="M",
                   help="total sessions to submit (default: 8)")
    p.add_argument("--policy", default="round-robin", metavar="NAME",
                   help="placement policy (round-robin, least-loaded; "
                        "default: round-robin)")
    p.add_argument("--admit-timeout", type=float, default=30.0,
                   metavar="S",
                   help="give up re-submitting an overloaded session "
                        "after S seconds and shed it (default: 30)")

    p = command("loadgen", _loadgen, "drive open-/closed-loop load at the "
                "worker pool", (pool,), backend="compiled", iterations=4)
    p.add_argument("--apps", nargs="+", required=True, metavar="BENCH",
                   help="benchmark mix; requests cycle over it")
    p.add_argument("--mode", choices=("closed", "open"), default="closed",
                   help="closed = fixed concurrency, open = fixed "
                        "arrival rate (default: closed)")
    p.add_argument("--concurrency", type=int, default=2, metavar="C",
                   help="closed-loop clients (default: 2)")
    p.add_argument("--rate", type=float, default=20.0, metavar="RPS",
                   help="open-loop arrival rate (default: 20/s)")
    p.add_argument("--requests", type=int, default=32, metavar="R",
                   help="total requests (default: 32)")
    p.add_argument("--policy", default="least-loaded", metavar="NAME",
                   help="placement policy (default: least-loaded)")
    p.add_argument("--kill-worker-after", type=int, default=None,
                   metavar="N",
                   help="fault injection: SIGKILL one worker once N "
                        "sessions have completed (supervision restarts "
                        "the lane; stranded sessions re-dispatch once)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the machine-readable report to FILE")

    for fig in _FIGURES:
        p = command(fig, _figure, f"regenerate {fig}")
        p.add_argument("--benchmarks", nargs="*", default=None)
    command("all", _all_figures, "regenerate every figure")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected command: the one place exceptions become exit
    codes, and where the ``--trace`` capture is opened and written."""
    from .codegen import UnsupportedCodegenTarget
    from .multicore.channels import ChannelStallTimeout
    from .runtime.errors import StreamRuntimeError
    from .simd import UnknownTargetError
    tracer = None
    if getattr(args, "trace", None):
        from .obs import Tracer
        tracer = Tracer()
    try:
        _check_names(args)
        code = args.run(args, tracer)
    except BrokenPipeError:
        # Output piped into head/less that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except UnknownTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(file=sys.stderr)
        print(_targets_table(), file=sys.stderr)
        return 2
    except ChannelStallTimeout as exc:
        print(f"error: parallel run deadlocked: {exc}", file=sys.stderr)
        print(f"  channel:   {exc.channel} ({exc.side} side)",
              file=sys.stderr)
        print(f"  occupancy: {exc.occupancy}/{exc.capacity}, needed "
              f"{exc.needed}", file=sys.stderr)
        print(f"  timeout:   {exc.timeout_s:.1f}s "
              f"(adjust with --stall-timeout)", file=sys.stderr)
        code = 3
    except (_UsageError, StreamRuntimeError,
            UnsupportedCodegenTarget) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if tracer is not None:
        from .obs import write_trace
        path = write_trace(tracer, args.trace,
                           metadata={"command": args.command,
                                     "benchmark": getattr(args, "benchmark",
                                                          None)})
        print(f"trace: {len(tracer.events)} event(s) written to {path}")
    return code


def _check_names(args: argparse.Namespace) -> None:
    """Look every registry name on the command line up before any work
    starts.  An unknown one is a usage error; a ``KeyError`` raised
    later is a bug and still tracebacks."""
    from .apps.registry import _registered_name
    from .experiments.harness import resolve_benchmarks
    from .serve import get_policy
    from .simd.pipeline import get_pipeline_options
    if args.command in _FIGURES:
        lookups = [(resolve_benchmarks, args.benchmarks)]
    else:
        apps = getattr(args, "benchmarks", None) or \
            getattr(args, "apps", None) or [getattr(args, "benchmark", None)]
        lookups = [(_registered_name, name) for name in apps if name]
    if getattr(args, "pipeline", None):
        lookups.append((get_pipeline_options, args.pipeline))
    for lookup, name in lookups:
        try:
            lookup(name)
        except KeyError as exc:
            raise _UsageError(exc.args[0]) from None
    # Typed (exit 2) on its own; the pool would resolve it only after
    # ``serve`` has run its reference executions.
    if getattr(args, "policy", None):
        get_policy(args.policy)


def _machine(args: argparse.Namespace):
    """Resolve the target machine of a subcommand through the registry.

    ``--machine NAME`` (name or alias, case-insensitive) picks a
    registered target; ``--sagu`` alone is the historical shorthand for
    the SAGU-equipped Core i7, and combined with ``--machine`` it adds a
    SAGU to the named target.  Unknown names raise
    :class:`repro.simd.UnknownTargetError` (rendered with the registry
    listing by :func:`_dispatch`).
    """
    from .simd import CORE_I7, CORE_I7_SAGU, get_target
    sagu = getattr(args, "sagu", False)   # serve/loadgen have no --sagu
    if args.machine:
        machine = get_target(args.machine)
        return machine.with_sagu() if sagu else machine
    return CORE_I7_SAGU if sagu else CORE_I7


def _targets_table() -> str:
    """The registry listing shown by ``macross targets`` and on unknown
    ``--machine`` names."""
    from .experiments.tables import format_table
    from .simd import get_target, list_targets, target_aliases
    rows = []
    for name in list_targets():
        m = get_target(name)
        rows.append((m.name, m.simd_width,
                     "yes" if m.has_sagu else "no",
                     "yes" if m.has_extract_even_odd else "no",
                     f"{len(m.vector_math_funcs)} funcs",
                     ", ".join(target_aliases(name)) or "-"))
    return format_table(("target", "SW", "SAGU", "even/odd", "vector math",
                         "aliases"), rows, align="llllll")


def _list(args: argparse.Namespace, tracer) -> int:
    from .apps import BENCHMARKS
    from .graph.flatten import flatten
    rows = []
    for name in sorted(BENCHMARKS):
        try:
            graph = flatten(BENCHMARKS[name]())
            rows.append((name, str(len(graph.actors)),
                         str(len(graph.tapes))))
        except Exception as exc:  # noqa: BLE001 - still list the name
            rows.append((name, "?", f"({type(exc).__name__})"))
    width = max(len(row[0]) for row in rows)
    for name, actors, tapes in rows:
        print(f"{name.ljust(width)}  actors={actors:>3s}  "
              f"tapes={tapes:>3s}")
    return 0


def _targets(args: argparse.Namespace, tracer) -> int:
    print(_targets_table())
    return 0


def _compile(args: argparse.Namespace, tracer) -> int:
    from .codegen import emit_cpp
    from .experiments.harness import scalar_graph
    from .simd import compile_graph
    machine = _machine(args)
    compiled = compile_graph(scalar_graph(args.benchmark), machine,
                             tracer=tracer, pipeline=args.pipeline)
    print(compiled.report.summary())
    print()
    print(compiled.graph.summary())
    if args.cpp:
        print()
        print(emit_cpp(compiled.graph, machine))
    return 0


def _run(args: argparse.Namespace, tracer) -> int:
    """``macross run <bench>``: the scalar graph and its macro-SIMDized
    version side by side; exit 1 unless their outputs are identical."""
    from .experiments.harness import scalar_graph
    from .obs import kernel_cache_summary
    from .runtime import execute
    from .simd import compile_graph
    machine = _machine(args)
    graph = scalar_graph(args.benchmark)
    options = dict(machine=machine, iterations=args.iterations,
                   backend=args.backend, tracer=tracer, cores=args.cores,
                   stall_timeout=args.stall_timeout)
    scalar = execute(graph, **options)
    compiled = compile_graph(graph, machine, tracer=tracer)
    simd = execute(compiled.graph, **options)
    scalar_cpo = scalar.cycles_per_output(machine)
    simd_cpo = simd.cycles_per_output(machine)
    matches = sum(1 for a, b in zip(scalar.outputs, simd.outputs) if a == b)
    compared = min(len(scalar.outputs), len(simd.outputs))
    engine = f"{scalar.backend} backend"
    if args.cores > 1:
        engine += f", {args.cores} cores"
    print(f"{args.benchmark} on {machine.name} [{engine}]")
    print(f"  scalar:  {scalar_cpo:10.1f} cycles/output")
    print(f"  MacroSS: {simd_cpo:10.1f} cycles/output "
          f"({scalar_cpo / simd_cpo:.2f}x)")
    print(f"  outputs identical: {matches}/{compared}")
    if args.cores > 1:
        for label, result in (("scalar", scalar), ("MacroSS", simd)):
            print(f"  {label} parallel run: {len(result.channel_stats)} "
                  f"channel(s), {result.total_stalls()} stall(s), "
                  f"{result.wall_time_s * 1e3:.1f} ms wall")
    if simd.kernel_cache is not None:
        print(f"  {kernel_cache_summary(simd.kernel_cache)}")
    if simd.vectorized is not None:
        vec = sum(1 for v in simd.vectorized.values()
                  if v.startswith("vector"))
        print(f"  vectorized actors: {vec}/{len(simd.vectorized)}")
        print(f"  batched firings: {simd.batched_firings}")
        for actor_id, status in sorted(simd.vectorized.items()):
            name = compiled.graph.actors[actor_id].name
            tape_reason = status.partition(" (tape fallback: ")[2]
            if not status.startswith("vector"):
                print(f"    fallback {name}: {status.split(': ', 1)[-1]}")
            elif tape_reason:
                print(f"    tape fallback {name}: {tape_reason[:-1]}")
    if matches != compared or compared == 0:
        print(f"error: MacroSS outputs diverge from the scalar graph "
              f"({matches}/{compared} identical)", file=sys.stderr)
        return 1
    return 0


def _multicore(args: argparse.Namespace, tracer) -> int:
    """``macross multicore <bench>``: per core count, the Figure 13
    *modeled* makespan per output (:func:`repro.plan.evaluate_partition`)
    next to a *measured* run on the thread-based parallel runtime — for
    the scalar graph and for the macro-SIMDized variant (partition-first,
    then per-core SIMDization, the paper's §5 scheduler)."""
    from .experiments.harness import scalar_graph
    from .experiments.tables import format_table
    from .multicore import parallel_execute
    from .plan import (Partition, build_plan_context, evaluate_partition,
                       get_partitioner)
    from .runtime import execute
    from .simd import compile_graph

    machine = _machine(args)
    partitioner = get_partitioner(args.partitioner, machine)
    graph = scalar_graph(args.benchmark)
    iterations = args.iterations
    scalar_ctx = build_plan_context(graph, machine, iterations=iterations)
    base_cpo = scalar_ctx.total_work / scalar_ctx.outputs_per_iteration

    print(f"{args.benchmark} on {machine.name} [{args.backend} backend, "
          f"{args.partitioner} partitioner, {iterations} steady "
          f"iteration(s)]")
    print(f"  sequential scalar baseline: {base_cpo:.1f} cycles/output")
    rows = []
    exit_code = 0
    for cores in args.cores or [1, 2, 4]:
        part = partitioner(graph, scalar_ctx.costs, cores)
        for variant, macro in (("scalar", False), ("+MacroSS", True)):
            if macro:
                compiled = compile_graph(graph, machine,
                                         partition=part.assignment,
                                         tracer=tracer)
                exec_graph = compiled.graph
                run_partition = Partition(compiled.core_assignment, cores)
                ctx = build_plan_context(exec_graph, machine,
                                         iterations=iterations)
            else:
                exec_graph = graph
                run_partition = part
                ctx = scalar_ctx
            model_cpo = (evaluate_partition(ctx, run_partition).makespan
                         / ctx.outputs_per_iteration)
            seq = execute(exec_graph, machine=machine,
                          iterations=iterations, backend=args.backend)
            par = parallel_execute(exec_graph, machine=machine,
                                   iterations=iterations,
                                   backend=args.backend, cores=cores,
                                   partition=run_partition, tracer=tracer)
            parity = (par.outputs == seq.outputs
                      and par.init_outputs == seq.init_outputs)
            if not parity:
                exit_code = 1
            rows.append((
                str(cores), variant,
                f"{model_cpo:.1f}",
                f"{base_cpo / model_cpo:.2f}x",
                str(len(par.channel_stats)),
                str(par.total_stalls()),
                (str(par.batched_firings)
                 if args.backend == "vector" else "-"),
                f"{par.wall_time_s * 1e3:.1f}",
                "ok" if parity else "MISMATCH",
            ))
    print()
    print(format_table(("cores", "variant", "model cyc/out", "speedup",
                        "channels", "stalls", "batched", "wall ms",
                        "parity"), rows, align="rlrrrrrrr"))
    return exit_code


def _plan(args: argparse.Namespace, tracer) -> int:
    """``macross plan <bench>``: one planning context per benchmark/target,
    every registered partitioner priced through it, the branch-and-bound
    plan, the whole-program vectorization choice, and the Pareto front."""
    from .experiments.harness import scalar_graph
    from .experiments.tables import format_table
    from .plan import (
        build_plan_context,
        evaluate_partition,
        get_partitioner,
        list_partitioners,
        optimize_partition,
        pareto_front,
        plan_vectorization,
    )

    machine = _machine(args)
    graph = scalar_graph(args.benchmark)
    cores = args.cores
    ctx = build_plan_context(graph, machine, iterations=args.iterations)

    print(f"{args.benchmark} on {machine.name} "
          f"[{cores} cores, COMM {ctx.comm_price:g} cyc/item, "
          f"{len(graph.actors)} actors]")
    print()

    rows = []
    for name in list_partitioners():
        part = get_partitioner(name, machine)(graph, ctx.costs, cores)
        ev = evaluate_partition(ctx, part)
        rows.append((name, f"{ev.makespan:.1f}", ev.memory_items,
                     len(ev.cut_tapes), len(set(part.assignment.values()))))
    print(format_table(("strategy", "makespan", "memory", "cuts",
                        "cores used"), rows))

    if args.memory_budget is not None:
        # The dual: fastest plan that fits the channel-memory budget.
        result = optimize_partition(ctx, cores, objective="makespan",
                                    memory_budget=args.memory_budget)
        bound = f"memory budget {result.memory_budget}"
    else:
        result = optimize_partition(ctx, cores)
        bound = f"makespan bound {result.makespan_bound:.1f} (LPT)"
    print()
    print(f"optimizer: {result.objective} objective under {bound}; "
          f"{result.nodes} nodes"
          + (" (budget exhausted)" if result.exhausted else ""))
    print(f"  plan: makespan {result.evaluation.makespan:.1f}, "
          f"memory {result.evaluation.memory_items} items, "
          f"{len(result.evaluation.cut_tapes)} cut tape(s)")

    vec = plan_vectorization(graph, machine, iterations=args.iterations)
    counts = ", ".join(f"{technique} x{count}" for technique, count
                       in sorted(vec.technique_counts().items()))
    print(f"  vectorization: {vec.mode} "
          f"({vec.speedup:.2f}x vs scalar; {counts})")

    front = pareto_front(ctx, cores, points=args.points)
    print()
    print("Pareto front (memory vs makespan):")
    print(format_table(("makespan", "memory", "cuts"),
                       [(f"{pt.makespan:.1f}", pt.memory_items,
                         len(pt.evaluation.cut_tapes)) for pt in front],
                       align="rrr"))
    return 0


def _profile(args: argparse.Namespace, tracer) -> int:
    from .experiments.harness import scalar_graph
    from .obs import kernel_cache_summary
    from .perf import event_class_table, profile_table
    from .runtime import execute
    from .simd import compile_graph
    machine = _machine(args)
    graph = scalar_graph(args.benchmark)
    for label, g in (("scalar", graph),
                     ("MacroSS", compile_graph(graph, machine).graph)):
        result = execute(g, machine=machine, iterations=2,
                         backend=args.backend)
        print(f"--- {label} ---")
        print(profile_table(g, result.steady_counters, machine))
        print()
        print(event_class_table(result.steady_counters.total(), machine))
        if result.kernel_cache is not None:
            print(kernel_cache_summary(result.kernel_cache))
        print()
    return 0


def _trace(args: argparse.Namespace, tracer) -> int:
    """``macross trace <bench>``: compile + run under a live tracer, then
    print the per-pass table, the hottest actors, and cache statistics."""
    from .experiments.harness import scalar_graph
    from .obs import (Tracer, hottest_actors_table, kernel_cache_summary,
                      pass_table)
    from .runtime import execute
    from .simd import compile_graph

    machine = _machine(args)
    if tracer is None:      # the report needs spans even without --trace
        tracer = Tracer()
    compiled = compile_graph(scalar_graph(args.benchmark), machine,
                             tracer=tracer)
    result = execute(compiled.graph, machine=machine,
                     iterations=args.iterations, backend=args.backend,
                     tracer=tracer)

    print(f"{args.benchmark} on {machine.name} [{result.backend} backend, "
          f"{args.iterations} steady iteration(s)]")
    print()
    print("Algorithm-1 passes:")
    print(pass_table(tracer))
    print()
    print(f"hottest actors (top {args.top}):")
    print(hottest_actors_table(compiled.graph, result, machine,
                               top=args.top))
    if result.kernel_cache is not None:
        print()
        print(kernel_cache_summary(result.kernel_cache))
    return 0


def _dot(args: argparse.Namespace, tracer) -> int:
    from .experiments.harness import scalar_graph
    from .graph import to_dot
    from .schedule import repetition_vector
    from .simd import compile_graph
    machine = _machine(args)
    graph = scalar_graph(args.benchmark)
    if args.compiled:
        graph = compile_graph(graph, machine).graph
    print(to_dot(graph, repetition_vector(graph)))
    return 0


def _fuzz(args: argparse.Namespace, tracer) -> int:
    from pathlib import Path

    from .fuzz import replay_corpus, run_fuzz
    from .simd import get_target

    machines = None
    if args.machine:
        machines = {name: get_target(name) for name in args.machine}
    exit_code = 0
    corpus_dir = Path(args.corpus) if args.corpus else None

    if corpus_dir is not None:
        replay = replay_corpus(corpus_dir)
        print(f"corpus replay: {replay.checked} repro(s) from {corpus_dir}")
        for path, div in replay.failures:
            exit_code = 1
            print(f"  REGRESSION {path.name}: {div}")
        if replay.ok and replay.checked:
            print("  all clean")
    if args.replay_only:
        return exit_code

    backends = tuple(args.backend) if args.backend else None
    report = run_fuzz(args.seed, args.budget, corpus_dir=corpus_dir,
                      time_limit=args.time_limit, tracer=tracer,
                      machines=machines, backends=backends)
    print(report.summary())
    for finding in report.findings:
        exit_code = 1
        print(f"  FINDING seed={finding.seed} index={finding.index}: "
              f"{finding.divergence}")
        if finding.divergence.pass_trail:
            print("    pass trail: "
                  + " -> ".join(finding.divergence.pass_trail))
        print(f"    minimized to {finding.minimized.filter_count()} "
              f"filter(s)"
              + (f", saved {finding.repro_path}" if finding.repro_path
                 else ""))
    return exit_code


def _build_pool(args: argparse.Namespace, tracer):
    from .serve import ServePool
    return ServePool(args.workers, policy=args.policy,
                     backend=args.backend,
                     max_queue_depth=args.max_queue_depth,
                     wire_transport=args.transport,
                     shm_threshold=args.shm_threshold,
                     store_dir=args.store, tracer=tracer)


def _merged_store_stats(stats) -> dict:
    """Sum the workers' on-disk store counters (empty = no store)."""
    merged: dict = {}
    for entry in stats:
        for key, value in (entry.get("env", {}).get("store") or {}).items():
            merged[key] = merged.get(key, 0) + value
    return merged


def _print_supervision(stats) -> None:
    restarts = sum(e.get("restarts", 0) for e in stats)
    requeued = sum(e.get("requeued", 0) for e in stats)
    died = sum(e.get("worker_died", 0) for e in stats)
    if restarts or requeued or died:
        print(f"  supervision: {restarts} lane restart(s), {requeued} "
              f"session(s) re-dispatched, {died} failed as worker-died")
    store = _merged_store_stats(stats)
    if store:
        print("  kernel store: {hits} hit(s), {misses} miss(es), "
              "{stores} publish(es), {quarantined} quarantined, "
              "{errors} fs error(s)".format(
                  hits=store.get("hits", 0),
                  misses=store.get("misses", 0),
                  stores=store.get("stores", 0),
                  quarantined=store.get("quarantined", 0),
                  errors=store.get("errors", 0)))


def _serve_specs(args: argparse.Namespace, names, machine, count: int):
    from .serve import SessionSpec
    return [SessionSpec(benchmark=names[i % len(names)],
                        pipeline=args.pipeline, machine=machine.name,
                        backend=args.backend, iterations=args.iterations,
                        tag=f"s{i}")
            for i in range(count)]


def _serve_references(names, machine, args: argparse.Namespace):
    """Direct in-process executions to check served outputs against."""
    from .experiments.harness import scalar_graph
    from .runtime import execute
    from .simd import compile_graph
    refs = {}
    for name in names:
        graph = compile_graph(scalar_graph(name), machine,
                              pipeline=args.pipeline).graph
        refs[name] = execute(graph, machine=machine,
                             iterations=args.iterations,
                             backend=args.backend)
    return refs


def _serve(args: argparse.Namespace, tracer) -> int:
    """``macross serve``: run sessions through a live worker pool, check
    every served output against a direct in-process execution, and print
    the per-worker blame table."""
    import time as _time

    from .obs import serve_table
    from .serve import ServeOverload, percentile

    machine = _machine(args)
    names = list(dict.fromkeys(args.benchmarks))  # de-dup, keep order
    refs = _serve_references(names, machine, args)
    specs = _serve_specs(args, args.benchmarks, machine, args.sessions)

    pool = _build_pool(args, tracer)
    admitted = []          # (spec, ticket) pairs, in submit order
    shed = []              # specs rejected until --admit-timeout ran out
    overloads = 0
    try:
        for spec in specs:
            deadline = _time.monotonic() + args.admit_timeout
            while True:
                outcome = pool.submit(spec)
                if isinstance(outcome, ServeOverload):
                    overloads += 1
                    if _time.monotonic() >= deadline:
                        shed.append(spec)
                        break
                    _time.sleep(0.002)
                    continue
                admitted.append((spec, outcome))
                break
        results = [t.result(timeout=300.0) for _spec, t in admitted]
    finally:
        stats = pool.shutdown()

    errors = [r for r in results if not r.ok]
    mismatches = []
    for (spec, _ticket), result in zip(admitted, results):
        ref = refs[spec.benchmark]
        if result.ok and (result.outputs != ref.outputs
                          or result.init_outputs != ref.init_outputs):
            mismatches.append(spec.tag)

    print(f"serve: {len(results)} session(s) over {args.workers} worker(s) "
          f"[{args.backend} backend, {args.policy} policy, "
          f"pipeline={args.pipeline}, transport={args.transport}]")
    if overloads or shed:
        print(f"  admission: {overloads} overload rejection(s), "
              f"{len(shed)} session(s) shed after "
              f"{args.admit_timeout:g}s admit timeout")
    latencies = sorted(t.latency_s for _spec, t in admitted)
    if latencies:
        print(f"  latency p50 {percentile(latencies, 50) * 1e3:.1f} ms  "
              f"p99 {percentile(latencies, 99) * 1e3:.1f} ms")
    print()
    print(serve_table(stats))
    _print_supervision(stats)
    for result in errors:
        print(f"  ERROR session {result.seq} ({result.tag}): "
              f"{result.error}")
    if mismatches:
        print(f"  PARITY MISMATCH in session(s): {', '.join(mismatches)}")
    else:
        print(f"  parity: all {len(results) - len(errors)} served "
              f"session(s) match direct execution")
    # Shed sessions are admission control doing its job, not a failure:
    # only real session errors or parity mismatches are non-zero.
    return 1 if errors or mismatches else 0


def _loadgen(args: argparse.Namespace, tracer) -> int:
    """``macross loadgen``: drive open-/closed-loop load at a pool and
    print the latency/throughput report."""
    from .obs import serve_table
    from .serve import kill_worker_after, run_closed_loop, run_open_loop

    machine = _machine(args)
    specs = _serve_specs(args, args.apps, machine, len(args.apps))

    pool = _build_pool(args, tracer)
    fault = None
    try:
        if args.kill_worker_after is not None:
            fault = kill_worker_after(pool, args.kill_worker_after)
        if args.mode == "closed":
            report = run_closed_loop(pool, specs,
                                     concurrency=args.concurrency,
                                     requests=args.requests)
        else:
            report = run_open_loop(pool, specs, rate=args.rate,
                                   requests=args.requests)
    finally:
        stats = pool.shutdown()
    if fault is not None:
        fault.join(timeout=1.0)

    print(report.summary())
    print()
    print(serve_table(stats))
    _print_supervision(stats)
    if args.json:
        import json as _json
        payload = report.to_dict()
        payload["apps"] = list(dict.fromkeys(args.apps))
        payload["policy"] = args.policy
        payload["machine"] = machine.name
        payload["transport"] = args.transport
        payload["restarts"] = sum(e.get("restarts", 0) for e in stats)
        payload["requeued"] = sum(e.get("requeued", 0) for e in stats)
        payload["worker_died"] = sum(e.get("worker_died", 0)
                                     for e in stats)
        store = _merged_store_stats(stats)
        if store:
            payload["store"] = store
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.json}")
    return 0 if report.errors == 0 else 1


def _run_figure(name: str, benchmarks):
    from . import experiments
    return getattr(experiments, f"run_{name}")(benchmarks=benchmarks)


def _figure(args: argparse.Namespace, tracer) -> int:
    print(_run_figure(args.command, args.benchmarks).render())
    return 0


def _all_figures(args: argparse.Namespace, tracer) -> int:
    for fig in _FIGURES:
        print(f"== {fig} ==")
        print(_run_figure(fig, None).render())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
