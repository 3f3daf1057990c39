"""``macross`` command-line interface.

Subcommands::

    macross list                      # available benchmarks
    macross targets                   # registered SIMD targets
    macross compile <bench>           # compilation report (+ --cpp for code)
    macross run <bench>               # execute scalar vs macro-SIMDized
    macross multicore <bench>         # modeled makespan vs parallel runtime
    macross plan <bench>              # partition/buffer/SIMD co-planning
    macross trace <bench>             # per-pass timing + hottest actors
    macross fuzz                      # differential fuzzing campaign
    macross serve <bench...>          # sessions through the worker pool
    macross loadgen --apps ...        # open-/closed-loop load generation
    macross fig10a|fig10b|fig11|fig12|fig13   # regenerate a paper figure
    macross all                       # every figure

``compile``, ``run``, ``profile``, ``trace``, ``dot``, and ``fuzz``
accept ``--machine NAME`` resolved through the target registry
(``macross targets`` lists names and aliases; unknown names print the
listing).  ``--sagu`` remains a shorthand for the SAGU-equipped Core i7
(or, combined with ``--machine``, adds a SAGU to the named target).
``compile`` also accepts ``--pipeline NAME`` to run one of the named
ablation pipelines (``scalar``, ``single-only``, ``no-tape``, ``full``,
…).

``run``, ``profile``, and ``trace`` accept ``--backend
{interp,compiled,vector}`` to select the execution engine: ``interp`` is
the reference tree-walking IR interpreter, ``compiled`` compiles each
actor body once to cached Python closures (identical outputs and
performance counters, several times faster wall-clock), and ``vector``
additionally batches firings into numpy whole-array kernels where
provably safe (requires the optional numpy extra).  With the compiled
and vector backends the kernel-cache statistics of the run are reported;
with ``vector``, ``run`` also prints the per-actor vectorized-vs-fallback
summary (tape fallbacks included) and the number of batched firings, and
``multicore`` gains a ``batched`` column counting firings that ran
through batch kernels across all cores.

``run --cores N`` executes both variants on the thread-based parallel
runtime (N worker threads over an LPT partition, cut tapes replaced by
bounded channels) and reports backpressure stalls — the outputs and
modeled cycles are identical to the sequential run by construction.
``--stall-timeout SECONDS`` bounds every cross-core channel wait; on a
stall timeout the CLI prints *which* channel stalled on which side (the
deadlock diagnostics of the serving layer) and exits 3.  ``run`` exits
1 when the SIMDized graph's outputs differ from the scalar graph's (or
there is nothing to compare), like ``multicore`` does on ``MISMATCH``.

``serve`` runs sessions for one or more benchmarks through the
process-sharded worker pool (``repro.serve``) and prints the per-worker
blame table plus a parity check against direct execution; ``loadgen``
drives an open-loop (``--mode open --rate R``) or closed-loop
(``--mode closed --concurrency C``) request stream over the app registry
and reports p50/p99 latency and throughput (``--json FILE`` saves the
machine-readable report).

``list`` prints every registry benchmark with its flat-graph actor and
tape counts, so loadgen mixes can be sized without opening the source.
``multicore <bench>`` prints a per-core-count table comparing the
Figure 13 makespan *model* against the *measured* parallel runtime, for
the scalar and macro-SIMDized variants (``--cores`` is repeatable,
default 1/2/4; ``--partitioner NAME`` selects any strategy registered
with the planning subsystem — ``lpt``, ``contiguous``, ``opt``, … —
unknown names exit 2 with a did-you-mean suggestion).

``plan <bench>`` runs the co-optimizing planner (``repro.plan``) for one
benchmark on one target: it compares every registered partitioner's
communication-aware makespan and planned channel-buffer memory, reports
the branch-and-bound optimizer's plan (min memory under a makespan
bound; ``--memory-budget`` flips to the dual), the whole-program
vectorization choice, and the memory-vs-makespan Pareto front
(``--points`` bounds). ``--target`` is an alias for ``--machine`` —
``macross plan dct --cores 4 --target gpu-like`` shows how an expensive
inter-core transfer price changes the plan versus the Core i7.

``compile``, ``run``, ``trace``, and ``fuzz`` accept ``--trace FILE`` to
capture an execution trace: ``*.jsonl`` writes JSON lines, anything else
a Chrome ``trace_event`` file loadable in ``chrome://tracing``/Perfetto
(see ``repro.obs``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="macross",
        description="MacroSS (ASPLOS 2010) reproduction driver")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available benchmarks")
    sub.add_parser("targets",
                   help="list registered SIMD targets (name, width, "
                        "features, aliases)")

    def add_trace_flag(p) -> None:
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="write a trace capture to FILE (*.jsonl for "
                            "JSON lines, else Chrome trace_event JSON)")

    def add_machine_flag(p) -> None:
        p.add_argument("--machine", default=None, metavar="NAME",
                       help="target machine, resolved through the "
                            "registry (see `macross targets`; "
                            "default: core-i7-sse4)")

    def _add_pool_flags(p) -> None:
        p.add_argument("--transport", choices=("queue", "shm"),
                       default="shm", dest="transport",
                       help="result wire transport: 'shm' moves large "
                            "output arrays via shared memory, 'queue' "
                            "pickles everything (default: shm)")
        p.add_argument("--shm-threshold", type=int, default=None,
                       metavar="V",
                       help="min output values before a result uses shm "
                            "(default: 256 or $MACROSS_SHM_THRESHOLD; "
                            "<= 0 forces shm for every packable result)")
        p.add_argument("--store", default=None, metavar="DIR",
                       help="on-disk kernel store directory (default: "
                            "$MACROSS_KERNEL_STORE, unset = no store)")

    p_compile = sub.add_parser("compile", help="show compilation decisions")
    p_compile.add_argument("benchmark")
    p_compile.add_argument("--cpp", action="store_true",
                           help="emit the generated C++ with intrinsics")
    p_compile.add_argument("--sagu", action="store_true",
                           help="target the SAGU-equipped machine")
    p_compile.add_argument("--pipeline", default=None, metavar="NAME",
                           help="named ablation pipeline (scalar, "
                                "single-only, no-tape, full, ...)")
    add_machine_flag(p_compile)
    add_trace_flag(p_compile)

    p_run = sub.add_parser("run", help="execute scalar vs macro-SIMDized")
    p_run.add_argument("benchmark")
    p_run.add_argument("--iterations", type=int, default=4)
    p_run.add_argument("--sagu", action="store_true")
    p_run.add_argument("--backend", choices=("interp", "compiled", "vector"),
                       default="interp",
                       help="execution engine (default: interp)")
    p_run.add_argument("--cores", type=int, default=1, metavar="N",
                       help="execute on N worker threads via the parallel "
                            "runtime (default: 1 = sequential)")
    p_run.add_argument("--stall-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="abort a parallel run when a cross-core "
                            "channel stalls this long, reporting which "
                            "channel deadlocked (default: 30)")
    add_machine_flag(p_run)
    add_trace_flag(p_run)

    p_mc = sub.add_parser(
        "multicore",
        help="Figure 13 makespan model vs the measured parallel runtime")
    p_mc.add_argument("benchmark")
    p_mc.add_argument("--cores", type=int, action="append", default=None,
                      metavar="N",
                      help="worker-core count to measure (repeatable; "
                           "default: 1 2 4)")
    p_mc.add_argument("--iterations", type=int, default=2)
    p_mc.add_argument("--backend", choices=("interp", "compiled", "vector"),
                      default="interp",
                      help="execution engine (default: interp)")
    p_mc.add_argument("--partitioner", default="lpt", metavar="NAME",
                      help="partitioning strategy registered with the "
                           "planning subsystem (lpt, contiguous, opt, ...; "
                           "default: lpt)")
    p_mc.add_argument("--sagu", action="store_true")
    add_machine_flag(p_mc)
    add_trace_flag(p_mc)

    p_plan = sub.add_parser(
        "plan",
        help="co-optimize partition shape, channel buffers, and "
             "SIMDization for one benchmark")
    p_plan.add_argument("benchmark")
    p_plan.add_argument("--cores", type=int, default=4, metavar="N",
                        help="core count to plan for (default: 4)")
    p_plan.add_argument("--target", dest="machine", metavar="NAME",
                        help="alias for --machine")
    p_plan.add_argument("--points", type=int, default=8, metavar="K",
                        help="interior Pareto sweep points (default: 8)")
    p_plan.add_argument("--memory-budget", type=int, default=None,
                        metavar="ITEMS",
                        help="plan min-makespan under this channel-memory "
                             "budget instead of min-memory under the LPT "
                             "makespan bound")
    p_plan.add_argument("--iterations", type=int, default=2)
    p_plan.add_argument("--sagu", action="store_true")
    add_machine_flag(p_plan)

    p_prof = sub.add_parser("profile",
                            help="per-actor cycle breakdown, scalar vs SIMD")
    p_prof.add_argument("benchmark")
    p_prof.add_argument("--sagu", action="store_true")
    p_prof.add_argument("--backend", choices=("interp", "compiled", "vector"),
                        default="interp",
                        help="execution engine (default: interp)")
    add_machine_flag(p_prof)

    p_trace = sub.add_parser(
        "trace", help="per-pass compile trace + hottest actors at runtime")
    p_trace.add_argument("benchmark")
    p_trace.add_argument("--iterations", type=int, default=4)
    p_trace.add_argument("--sagu", action="store_true")
    p_trace.add_argument("--backend", choices=("interp", "compiled", "vector"),
                         default="compiled",
                         help="execution engine (default: compiled, which "
                              "also reports kernel-cache statistics)")
    p_trace.add_argument("--top", type=int, default=10, metavar="N",
                         help="number of hottest actors to list "
                              "(default: 10)")
    add_machine_flag(p_trace)
    add_trace_flag(p_trace)

    p_dot = sub.add_parser("dot", help="emit Graphviz DOT for a benchmark")
    p_dot.add_argument("benchmark")
    p_dot.add_argument("--compiled", action="store_true",
                       help="render the macro-SIMDized graph")
    p_dot.add_argument("--sagu", action="store_true")
    add_machine_flag(p_dot)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing of every SIMDization path")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default: 0)")
    p_fuzz.add_argument("--budget", type=int, default=100,
                        help="number of generated programs (default: 100)")
    p_fuzz.add_argument("--corpus", default=None, metavar="DIR",
                        help="directory for minimized repros; also replayed "
                             "before fuzzing (default: no persistence)")
    p_fuzz.add_argument("--time-limit", type=float, default=None,
                        metavar="SECONDS",
                        help="stop the campaign after this many seconds")
    p_fuzz.add_argument("--replay-only", action="store_true",
                        help="only replay the corpus, no new programs")
    p_fuzz.add_argument("--machine", action="append", default=None,
                        metavar="NAME", dest="machine",
                        help="restrict the machine axis to this registered "
                             "target (repeatable; default: every "
                             "registered target)")
    p_fuzz.add_argument("--backend", action="append", default=None,
                        choices=("compiled", "vector"), dest="backend",
                        help="restrict the differential backend axis "
                             "(repeatable; default: compiled plus vector "
                             "when numpy is installed)")
    add_trace_flag(p_fuzz)

    p_serve = sub.add_parser(
        "serve", help="run benchmark sessions through the process-sharded "
                      "worker pool")
    p_serve.add_argument("benchmarks", nargs="+",
                         help="benchmark name(s); sessions cycle over them")
    p_serve.add_argument("--workers", type=int, default=2, metavar="N",
                         help="worker processes (default: 2)")
    p_serve.add_argument("--sessions", type=int, default=8, metavar="M",
                         help="total sessions to submit (default: 8)")
    p_serve.add_argument("--iterations", type=int, default=4)
    p_serve.add_argument("--backend", choices=("interp", "compiled", "vector"),
                         default="compiled")
    p_serve.add_argument("--policy", default="round-robin", metavar="NAME",
                         help="placement policy (round-robin, least-loaded;"
                              " default: round-robin)")
    p_serve.add_argument("--pipeline", default="full", metavar="NAME",
                         help="compilation pipeline per session "
                              "(default: full)")
    p_serve.add_argument("--max-queue-depth", type=int, default=8,
                         metavar="D",
                         help="per-worker admission high-water (default: 8)")
    p_serve.add_argument("--admit-timeout", type=float, default=30.0,
                         metavar="S",
                         help="give up re-submitting an overloaded session "
                              "after S seconds and shed it (default: 30)")
    _add_pool_flags(p_serve)
    add_machine_flag(p_serve)
    add_trace_flag(p_serve)

    p_lg = sub.add_parser(
        "loadgen", help="drive open-/closed-loop load at the worker pool")
    p_lg.add_argument("--apps", nargs="+", required=True, metavar="BENCH",
                      help="benchmark mix; requests cycle over it")
    p_lg.add_argument("--workers", type=int, default=2, metavar="N")
    p_lg.add_argument("--mode", choices=("closed", "open"),
                      default="closed",
                      help="closed = fixed concurrency, open = fixed "
                           "arrival rate (default: closed)")
    p_lg.add_argument("--concurrency", type=int, default=2, metavar="C",
                      help="closed-loop clients (default: 2)")
    p_lg.add_argument("--rate", type=float, default=20.0, metavar="RPS",
                      help="open-loop arrival rate (default: 20/s)")
    p_lg.add_argument("--requests", type=int, default=32, metavar="R",
                      help="total requests (default: 32)")
    p_lg.add_argument("--iterations", type=int, default=4)
    p_lg.add_argument("--backend", choices=("interp", "compiled", "vector"),
                      default="compiled")
    p_lg.add_argument("--policy", default="least-loaded", metavar="NAME",
                      help="placement policy (default: least-loaded)")
    p_lg.add_argument("--pipeline", default="full", metavar="NAME")
    p_lg.add_argument("--max-queue-depth", type=int, default=8,
                      metavar="D")
    p_lg.add_argument("--kill-worker-after", type=int, default=None,
                      metavar="N",
                      help="fault injection: SIGKILL one worker once N "
                           "sessions have completed (supervision restarts "
                           "the lane; stranded sessions re-dispatch once)")
    p_lg.add_argument("--json", default=None, metavar="FILE",
                      help="write the machine-readable report to FILE")
    _add_pool_flags(p_lg)
    add_machine_flag(p_lg)
    add_trace_flag(p_lg)

    for fig in ("fig10a", "fig10b", "fig11", "fig12", "fig13"):
        p_fig = sub.add_parser(fig, help=f"regenerate {fig}")
        p_fig.add_argument("--benchmarks", nargs="*", default=None)
    sub.add_parser("all", help="regenerate every figure")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # Output piped into head/less that closed early: not an error.
        import os
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


def _machine(args: argparse.Namespace):
    """Resolve the target machine of a subcommand through the registry.

    ``--machine NAME`` (name or alias, case-insensitive) picks a
    registered target; ``--sagu`` alone is the historical shorthand for
    the SAGU-equipped Core i7, and combined with ``--machine`` it adds a
    SAGU to the named target.  Unknown names raise
    :class:`repro.simd.UnknownTargetError` (rendered with the registry
    listing by :func:`_dispatch`).
    """
    from .simd import get_target
    name = getattr(args, "machine", None)
    sagu = getattr(args, "sagu", False)
    if name:
        machine = get_target(name)
        return machine.with_sagu() if sagu else machine
    from .simd import CORE_I7, CORE_I7_SAGU
    return CORE_I7_SAGU if sagu else CORE_I7


def _targets_table() -> str:
    """The registry listing shown by ``macross targets`` and on unknown
    ``--machine`` names."""
    from .simd import get_target, list_targets, target_aliases
    header = ("target", "SW", "SAGU", "even/odd", "vector math", "aliases")
    rows = [header]
    for name in list_targets():
        m = get_target(name)
        rows.append((
            m.name,
            str(m.simd_width),
            "yes" if m.has_sagu else "no",
            "yes" if m.has_extract_even_odd else "no",
            f"{len(m.vector_math_funcs)} funcs",
            ", ".join(target_aliases(name)) or "-",
        ))
    widths = [max(len(row[col]) for row in rows)
              for col in range(len(header))]
    lines = ["  ".join(cell.ljust(width)
                       for cell, width in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _tracer_for(args: argparse.Namespace):
    """A live tracer when ``--trace FILE`` was given, else ``None``."""
    if getattr(args, "trace", None):
        from .obs import Tracer
        return Tracer()
    return None


def _write_trace(tracer, args: argparse.Namespace) -> None:
    if tracer is None or not getattr(args, "trace", None):
        return
    from .obs import write_trace
    path = write_trace(tracer, args.trace,
                       metadata={"command": args.command,
                                 "benchmark": getattr(args, "benchmark",
                                                      None)})
    print(f"trace: {len(tracer.events)} event(s) written to {path}")


def _cache_stats_line(result) -> Optional[str]:
    """Kernel-cache statistics line for a compiled-backend result."""
    if result.kernel_cache is None:
        return None
    from .obs import kernel_cache_summary
    return kernel_cache_summary(result.kernel_cache)


def _dispatch(args: argparse.Namespace) -> int:
    from .codegen import UnsupportedCodegenTarget
    from .runtime.errors import StreamRuntimeError
    from .simd import UnknownTargetError
    try:
        return _dispatch_inner(args)
    except UnknownTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(file=sys.stderr)
        print(_targets_table(), file=sys.stderr)
        return 2
    except (StreamRuntimeError, UnsupportedCodegenTarget) as exc:
        # Serving-layer misuse (unknown policy, pool failures), other
        # runtime errors, `--cpp` on a non-SSE target: report, don't
        # traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch_inner(args: argparse.Namespace) -> int:
    from .apps import BENCHMARKS

    if args.command == "list":
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

    if args.command == "targets":
        print(_targets_table())
        return 0

    if args.command == "compile":
        from .experiments.harness import scalar_graph
        from .simd import compile_graph
        machine = _machine(args)
        tracer = _tracer_for(args)
        compiled = compile_graph(scalar_graph(args.benchmark), machine,
                                 tracer=tracer, pipeline=args.pipeline)
        print(compiled.report.summary())
        print()
        print(compiled.graph.summary())
        if args.cpp:
            from .codegen import emit_cpp
            print()
            print(emit_cpp(compiled.graph, machine))
        _write_trace(tracer, args)
        return 0

    if args.command == "run":
        from .experiments.harness import scalar_graph
        from .multicore.channels import ChannelStallTimeout
        from .runtime import execute
        from .simd import compile_graph
        machine = _machine(args)
        tracer = _tracer_for(args)
        cores = getattr(args, "cores", 1)
        stall_timeout = getattr(args, "stall_timeout", 30.0)
        graph = scalar_graph(args.benchmark)
        try:
            scalar = execute(graph, machine=machine,
                             iterations=args.iterations,
                             backend=args.backend, tracer=tracer,
                             cores=cores, stall_timeout=stall_timeout)
            compiled = compile_graph(graph, machine, tracer=tracer)
            simd = execute(compiled.graph, machine=machine,
                           iterations=args.iterations, backend=args.backend,
                           tracer=tracer, cores=cores,
                           stall_timeout=stall_timeout)
        except ChannelStallTimeout as exc:
            print(f"error: parallel run deadlocked: {exc}", file=sys.stderr)
            print(f"  channel:   {exc.channel} ({exc.side} side)",
                  file=sys.stderr)
            print(f"  occupancy: {exc.occupancy}/{exc.capacity}, needed "
                  f"{exc.needed}", file=sys.stderr)
            print(f"  timeout:   {exc.timeout_s:.1f}s "
                  f"(adjust with --stall-timeout)", file=sys.stderr)
            _write_trace(tracer, args)
            return 3
        scalar_cpo = scalar.cycles_per_output(machine)
        simd_cpo = simd.cycles_per_output(machine)
        matches = sum(
            1 for a, b in zip(scalar.outputs, simd.outputs) if a == b)
        compared = min(len(scalar.outputs), len(simd.outputs))
        engine = f"{scalar.backend} backend"
        if cores > 1:
            engine += f", {cores} cores"
        print(f"{args.benchmark} on {machine.name} [{engine}]")
        print(f"  scalar:  {scalar_cpo:10.1f} cycles/output")
        print(f"  MacroSS: {simd_cpo:10.1f} cycles/output "
              f"({scalar_cpo / simd_cpo:.2f}x)")
        print(f"  outputs identical: {matches}/{compared}")
        for label, result in (("scalar", scalar), ("MacroSS", simd)):
            stats = getattr(result, "channel_stats", None)
            if stats is not None:
                stalls = result.total_stalls()
                print(f"  {label} parallel run: {len(stats)} channel(s), "
                      f"{stalls} stall(s), "
                      f"{result.wall_time_s * 1e3:.1f} ms wall")
        cache_line = _cache_stats_line(simd)
        if cache_line is not None:
            print(f"  {cache_line}")
        if simd.vectorized is not None:
            vec = sum(1 for v in simd.vectorized.values()
                      if v.startswith("vector"))
            total = len(simd.vectorized)
            print(f"  vectorized actors: {vec}/{total}")
            batched = getattr(simd, "batched_firings", 0)
            print(f"  batched firings: {batched}")
            for actor_id, status in sorted(simd.vectorized.items()):
                if not status.startswith("vector"):
                    name = compiled.graph.actors[actor_id].name
                    print(f"    fallback {name}: "
                          f"{status.split(': ', 1)[-1]}")
        _write_trace(tracer, args)
        if matches != compared or compared == 0:
            print(f"error: MacroSS outputs diverge from the scalar graph "
                  f"({matches}/{compared} identical)", file=sys.stderr)
            return 1
        return 0

    if args.command == "multicore":
        return _run_multicore_command(args)

    if args.command == "plan":
        return _run_plan_command(args)

    if args.command == "trace":
        return _run_trace_command(args)

    if args.command == "dot":
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

    if args.command == "profile":
        from .experiments.harness import scalar_graph
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
            cache_line = _cache_stats_line(result)
            if cache_line is not None:
                print(cache_line)
            print()
        return 0

    if args.command == "fuzz":
        return _run_fuzz_command(args)

    if args.command == "serve":
        return _run_serve_command(args)

    if args.command == "loadgen":
        return _run_loadgen_command(args)

    if args.command in ("fig10a", "fig10b", "fig11", "fig12", "fig13"):
        result = _run_figure(args.command, args.benchmarks)
        print(result.render())
        return 0

    if args.command == "all":
        for fig in ("fig10a", "fig10b", "fig11", "fig12", "fig13"):
            print(f"== {fig} ==")
            print(_run_figure(fig, None).render())
            print()
        return 0

    return 1


def _run_multicore_command(args: argparse.Namespace) -> int:
    """``macross multicore <bench>``: per core count, the Figure 13
    *modeled* makespan per output next to a *measured* run on the
    thread-based parallel runtime — for the scalar graph and for the
    macro-SIMDized variant (partition-first, then per-core SIMDization,
    the paper's §5 scheduler)."""
    from .experiments.harness import scalar_graph
    from .multicore import (
        Partition,
        get_partitioner,
        parallel_execute,
        profile_actor_costs,
        simulate_multicore,
    )
    from .runtime import execute
    from .simd import compile_graph

    machine = _machine(args)
    tracer = _tracer_for(args)
    graph = scalar_graph(args.benchmark)
    core_counts = args.cores or [1, 2, 4]
    partitioner = get_partitioner(args.partitioner, machine)
    iterations = args.iterations

    baseline = execute(graph, machine=machine, iterations=iterations,
                       backend=args.backend)
    base_cpo = baseline.cycles_per_output(machine)
    costs = profile_actor_costs(graph, machine, iterations=iterations)

    print(f"{args.benchmark} on {machine.name} [{args.backend} backend, "
          f"{args.partitioner} partitioner, {iterations} steady "
          f"iteration(s)]")
    print(f"  sequential scalar baseline: {base_cpo:.1f} cycles/output")
    header = ("cores", "variant", "model cyc/out", "speedup", "channels",
              "stalls", "batched", "wall ms", "parity")
    rows = [header]
    exit_code = 0
    for cores in core_counts:
        part = partitioner(graph, costs, cores)
        for variant, macro in (("scalar", False), ("+MacroSS", True)):
            model = simulate_multicore(graph, machine, cores,
                                       macro_simd=macro,
                                       partitioner=partitioner,
                                       iterations=iterations)
            if macro:
                compiled = compile_graph(graph, machine,
                                         partition=part.assignment,
                                         tracer=tracer)
                exec_graph = compiled.graph
                run_partition = Partition(compiled.core_assignment, cores)
            else:
                exec_graph = graph
                run_partition = part
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
                f"{model.makespan_per_output:.1f}",
                f"{base_cpo / model.makespan_per_output:.2f}x",
                str(len(par.channel_stats)),
                str(par.total_stalls()),
                (str(par.batched_firings)
                 if args.backend == "vector" else "-"),
                f"{par.wall_time_s * 1e3:.1f}",
                "ok" if parity else "MISMATCH",
            ))
    widths = [max(len(row[col]) for row in rows)
              for col in range(len(header))]
    lines = ["  ".join(cell.rjust(width) if col not in (1,)
                       else cell.ljust(width)
                       for col, (cell, width)
                       in enumerate(zip(row, widths))).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    print()
    print("\n".join(lines))
    _write_trace(tracer, args)
    return exit_code


def _run_plan_command(args: argparse.Namespace) -> int:
    """``macross plan <bench>``: one planning context per benchmark/target,
    every registered partitioner priced through it, the branch-and-bound
    plan, the whole-program vectorization choice, and the Pareto front."""
    from .experiments.harness import scalar_graph
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

    header = ("strategy", "makespan", "memory", "cuts", "cores used")
    rows = [header]
    for name in list_partitioners():
        part = get_partitioner(name, machine)(graph, ctx.costs, cores)
        ev = evaluate_partition(ctx, part)
        rows.append((name, f"{ev.makespan:.1f}", str(ev.memory_items),
                     str(len(ev.cut_tapes)),
                     str(len(set(part.assignment.values())))))
    widths = [max(len(row[col]) for row in rows)
              for col in range(len(header))]
    lines = ["  ".join(cell.ljust(width) if col == 0 else cell.rjust(width)
                       for col, (cell, width)
                       in enumerate(zip(row, widths))).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    print("\n".join(lines))

    if args.memory_budget is not None:
        # The dual: fastest plan that fits the channel-memory budget.
        result = optimize_partition(ctx, cores, objective="makespan",
                                    memory_budget=args.memory_budget)
    else:
        result = optimize_partition(ctx, cores)
    print()
    bound = (f"memory budget {result.memory_budget}"
             if args.memory_budget is not None
             else f"makespan bound {result.makespan_bound:.1f} (LPT)")
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
    header = ("makespan", "memory", "cuts")
    rows = [header] + [(f"{pt.makespan:.1f}", str(pt.memory_items),
                        str(len(pt.evaluation.cut_tapes)))
                       for pt in front]
    widths = [max(len(row[col]) for row in rows)
              for col in range(len(header))]
    lines = ["  ".join(cell.rjust(width)
                       for cell, width in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    print("\n".join(lines))
    return 0


def _run_trace_command(args: argparse.Namespace) -> int:
    """``macross trace <bench>``: compile + run under a live tracer, then
    print the per-pass table, the hottest actors, and cache statistics."""
    from .experiments.harness import scalar_graph
    from .obs import Tracer, hottest_actors_table, kernel_cache_summary, \
        pass_table
    from .runtime import execute
    from .simd import compile_graph

    machine = _machine(args)
    tracer = Tracer()
    graph = scalar_graph(args.benchmark)
    compiled = compile_graph(graph, machine, tracer=tracer)
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
    _write_trace(tracer, args)
    return 0


def _run_fuzz_command(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .fuzz import replay_corpus, run_fuzz

    machines = None
    if args.machine:
        from .simd import get_target
        machines = {name: get_target(name) for name in args.machine}

    exit_code = 0
    corpus_dir = Path(args.corpus) if args.corpus else None
    tracer = _tracer_for(args)

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
    _write_trace(tracer, args)
    return exit_code


def _build_pool(args: argparse.Namespace, tracer):
    from .serve import ServePool
    return ServePool(args.workers, policy=args.policy,
                     backend=args.backend,
                     max_queue_depth=args.max_queue_depth,
                     wire_transport=getattr(args, "transport", "shm"),
                     shm_threshold=getattr(args, "shm_threshold", None),
                     store_dir=getattr(args, "store", None),
                     tracer=tracer)


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
    from .apps import get_benchmark
    from .graph.flatten import flatten
    from .runtime import execute
    from .schedule import build_schedule
    from .simd import compile_graph
    refs = {}
    for name in names:
        graph = flatten(get_benchmark(name))
        if args.pipeline is not None:
            graph = compile_graph(graph, machine,
                                  pipeline=args.pipeline).graph
        refs[name] = execute(graph, build_schedule(graph), machine=machine,
                             iterations=args.iterations,
                             backend=args.backend)
    return refs


def _run_serve_command(args: argparse.Namespace) -> int:
    """``macross serve``: run sessions through a live worker pool, check
    every served output against a direct in-process execution, and print
    the per-worker blame table."""
    import time as _time

    from .obs import serve_table
    from .serve import ServeOverload

    machine = _machine(args)
    tracer = _tracer_for(args)
    names = list(dict.fromkeys(args.benchmarks))  # de-dup, keep order
    try:
        refs = _serve_references(names, machine, args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
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
        if not result.ok:
            continue
        ref = refs[spec.benchmark] if spec.benchmark in refs \
            else refs[next(iter(refs))]
        if (result.outputs != ref.outputs
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
        from .serve import percentile
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
    _write_trace(tracer, args)
    # Shed sessions are admission control doing its job, not a failure:
    # only real session errors or parity mismatches are non-zero.
    return 1 if errors or mismatches else 0


def _run_loadgen_command(args: argparse.Namespace) -> int:
    """``macross loadgen``: drive open-/closed-loop load at a pool and
    print the latency/throughput report."""
    from .obs import serve_table
    from .serve import run_closed_loop, run_open_loop

    machine = _machine(args)
    tracer = _tracer_for(args)
    names = list(dict.fromkeys(args.apps))
    from .apps import BENCHMARKS
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        print(f"error: unknown benchmark(s) {unknown}; available: "
              f"{sorted(BENCHMARKS)}", file=sys.stderr)
        return 2
    specs = _serve_specs(args, args.apps, machine, len(args.apps))

    pool = _build_pool(args, tracer)
    fault = None
    try:
        if args.kill_worker_after is not None:
            from .serve import kill_worker_after
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
        payload["apps"] = names
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
    _write_trace(tracer, args)
    return 0 if report.errors == 0 else 1


def _run_figure(name: str, benchmarks):
    from . import experiments as ex
    runner = {"fig10a": ex.run_fig10a, "fig10b": ex.run_fig10b,
              "fig11": ex.run_fig11, "fig12": ex.run_fig12,
              "fig13": ex.run_fig13}[name]
    return runner(benchmarks=benchmarks)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
