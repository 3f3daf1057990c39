"""The six workloads.

A workload owns a fixed list of *op classes* (app x iteration count), a
system set-up (what a user pays before the first op: compile, spawn,
warm-up) and the code of one op.  Ops call the stack only through its
public functions, always unpaced, and wrap every call into a layer in a
``bench``-category span; with the tracer disabled the spans cost nothing.
Every op's output stream is checked against the oracle after its clock has
stopped.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import (build_plan_context, build_schedule, compile_graph,
                   evaluate_partition, execute, flatten, get_partitioner,
                   get_target)
from repro.apps import BENCHMARKS, get_benchmark
from repro.apps.stream import STREAM_APPS
from repro.obs import Tracer
from repro.runtime.compiled import CompiledBackend
from repro.runtime.vector import VectorBackend
from repro.serve import STORE_ENV_VAR, ServeOverload, ServePool, SessionSpec

from . import probes, roof
from .layers import OP_SPAN, Trace
from .metrics import PASS_NAMES, STREAM_KERNELS
from .oracle import Oracle, stream_of
from .stats import geomean, percentile

MACHINE = get_target("core-i7-sse4")
PIPELINE = "full"
WORKERS = 2
#: A served session that takes longer than this has failed.
SESSION_TIMEOUT_S = 60.0

OpClass = Tuple[str, int]            # (app, steady iterations)
Metrics = Dict[str, float]


def label(op: OpClass) -> str:
    return f"{op[0]}@{op[1]}"


@dataclass
class OpRecord:
    cls: str
    seconds: float
    items: int = 0
    ok: bool = False
    #: counters read off the op's result after the clock stopped.
    info: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Repeat:
    """Whole sweeps of the op list: one rate per sweep, one record per op."""
    wall_s: float = 0.0
    sweep_rates: List[float] = field(default_factory=list)
    records: List[OpRecord] = field(default_factory=list)

    def add(self, wall_s: float, records: List[OpRecord]) -> None:
        self.wall_s += wall_s
        self.sweep_rates.append(len(records) / wall_s)
        self.records.extend(records)

    def extend(self, other: "Repeat") -> None:
        self.wall_s += other.wall_s
        self.sweep_rates.extend(other.sweep_rates)
        self.records.extend(other.records)

    @property
    def sweeps(self) -> int:
        return len(self.sweep_rates)

    def one_sweep(self) -> List[OpRecord]:
        """The first sweep's records: every op of the list exactly once,
        the base of the counts that must repeat exactly."""
        return self.records[:len(self.records) // self.sweeps]

    def ops_per_s(self) -> float:
        """Median sweep rate: a stall that hits one sweep of fifteen does
        not move it."""
        return median(self.sweep_rates)

    def by_class(self) -> Dict[str, List[OpRecord]]:
        out: Dict[str, List[OpRecord]] = {}
        for record in self.records:
            out.setdefault(record.cls, []).append(record)
        return out

    def class_median(self, value: Callable[[OpRecord], float]
                     ) -> Dict[str, float]:
        return {cls: median(value(r) for r in records)
                for cls, records in self.by_class().items()}

    def class_seconds(self) -> Dict[str, float]:
        return self.class_median(lambda r: r.seconds)

    def class_items_per_s(self) -> Dict[str, float]:
        items = self.class_median(lambda r: r.items)
        return {cls: items[cls] / seconds
                for cls, seconds in self.class_seconds().items()}

    def p50(self, value: Callable[[OpRecord], float]) -> float:
        """Median of ``value`` over the ops, robustly: every op counts at
        its class's median.  The pooled median of a mix of classes sits
        where few ops are (between two classes), so it moves with any
        shift of the mass below it; the class medians do not."""
        at = self.class_median(value)
        return percentile([at[r.cls] for r in self.records], 50)


def _exec_info(result: Any, compiled: Any) -> Dict[str, Any]:
    """Counters of one op, as plain numbers: a record must not keep the
    op's graphs alive (``cold_run`` compiles a new one per op)."""
    info: Dict[str, Any] = {
        "actors_out": len(compiled.graph.actors),
        "tapes_out": len(compiled.graph.tapes),
        "simdized_actors": sum(
            1 for decision in compiled.report.decisions.values()
            if not decision.startswith("scalar")),
        # batched_firings counts the init phase too, so the base does.
        "batched_firings": result.batched_firings,
        "firings": sum(bag["fire"] for counters in
                       (result.init_counters, result.steady_counters)
                       for bag in counters.by_actor.values()),
    }
    if result.kernel_cache:
        info["kernel_cache"] = result.kernel_cache
    if result.vectorized is not None:
        statuses = list(result.vectorized.values())
        info["fallback_actors"] = sum(
            1 for s in statuses if not s.startswith("vector"))
        info["tape_fallbacks"] = sum(
            1 for s in statuses if "(tape fallback" in s)
    channel_stats = getattr(result, "channel_stats", None)
    if channel_stats is not None:
        info["channel_items"] = sum(s["pushes"] for s in channel_stats.values())
        info["channel_ops"] = sum(s["pushes"] + s["pops"]
                                  for s in channel_stats.values())
        info["channel_stalls"] = result.total_stalls()
    return info


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Workload:
    """Base class; see the module docstring."""

    name = ""
    classes: Sequence[OpClass] = ()
    #: how many times the op list repeats each class (serve sweeps are long
    #: enough that the client threads' start and join do not show).  Every
    #: mix has an odd number of equal shares, so the median op lies inside
    #: a class and not on the boundary between two.
    copies = 1

    def copies_of(self, op: OpClass) -> int:
        return self.copies

    def __init__(self, oracle: Oracle, tracer: Tracer, scratch: Path,
                 quick: bool = False) -> None:
        self.oracle = oracle
        self.tracer = tracer
        self.scratch = scratch
        #: smoke mode: same classes and code paths, less of each.
        self.quick = quick
        self.errors: List[str] = []

    # -- life cycle --------------------------------------------------------
    def setup(self) -> List[OpRecord]:
        """System set-up and warm-up; returns the warm-up ops' records."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def op_list(self, seed: int) -> List[OpClass]:
        """The fixed op list; the seed only shuffles its order."""
        ops = [op for op in self.classes
               for _ in range(self.copies_of(op))]
        random.Random(seed).shuffle(ops)
        return ops

    def warmup_order(self) -> List[OpClass]:
        # Longest first, so each app's reference grows once.
        return sorted(self.classes, key=lambda op: -op[1])

    def sweep(self, ops: Sequence[OpClass]) -> Tuple[float, List[OpRecord]]:
        raise NotImplementedError

    def _failed(self, op: OpClass, start: float, why: str) -> OpRecord:
        if len(self.errors) < 5:
            self.errors.append(f"{label(op)}: {why}")
        return OpRecord(label(op), time.perf_counter() - start,
                        info={"error": why})

    # -- per-layer ---------------------------------------------------------
    def layer_metrics(self, trace: Trace, reference: Repeat,
                      traced: Repeat) -> Tuple[Metrics, int]:
        """Per-layer metrics of this workload and the number of probe
        parity failures.  ``reference`` is untraced, ``traced`` the traced
        pass over the same op list, ``trace`` what the tracer recorded."""
        raise NotImplementedError


# =========================================================== in-process ops
class InProcess(Workload):
    """Ops that run in the benchmark's own process, one at a time."""

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.backend: Any = None
        #: app -> (compiled graph, schedule, CompiledGraph)
        self.compiled: Dict[str, Tuple[Any, Any, Any]] = {}

    def compile_app(self, app: str) -> Tuple[Any, Any, Any]:
        tr = self.tracer
        with tr.span("apps.build", cat="bench"):
            program = get_benchmark(app)
        with tr.span("graph.flatten", cat="bench"):
            graph = flatten(program)
        with tr.span("passes.compile", cat="bench"):
            compiled = compile_graph(graph, MACHINE, pipeline=PIPELINE,
                                     tracer=tr)
        with tr.span("schedule.build", cat="bench"):
            schedule = build_schedule(compiled.graph)
        return compiled.graph, schedule, compiled

    def setup(self) -> List[OpRecord]:
        self.backend = VectorBackend()
        self.compiled = {app: self.compile_app(app)
                         for app in dict.fromkeys(a for a, _ in self.classes)}
        return self.sweep(self.warmup_order())[1]

    def teardown(self) -> None:
        self.backend = None
        self.compiled = {}

    def call(self, op: OpClass) -> Tuple[Any, Any]:
        """Run one op; returns (ExecutionResult, CompiledGraph)."""
        app, iterations = op
        graph, schedule, compiled = self.compiled[app]
        with self.tracer.span("runtime.executor.execute", cat="bench"):
            result = execute(graph, schedule, machine=MACHINE,
                             iterations=iterations, backend=self.backend,
                             tracer=self.tracer)
        return result, compiled

    def run_op(self, op: OpClass) -> OpRecord:
        start = time.perf_counter()
        try:
            with self.tracer.span(OP_SPAN, cat="bench", cls=label(op)):
                result, compiled = self.call(op)
            seconds = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - an op that raises failed
            return self._failed(op, start, f"{type(exc).__name__}: {exc}")
        stream = stream_of(result)
        return OpRecord(label(op), seconds, len(stream),
                        self.oracle.check(op[0], stream),
                        _exec_info(result, compiled))

    def sweep(self, ops: Sequence[OpClass]) -> Tuple[float, List[OpRecord]]:
        records = [self.run_op(op) for op in ops]
        return sum(r.seconds for r in records), records

    def layer_metrics(self, trace: Trace, reference: Repeat,
                      traced: Repeat) -> Tuple[Metrics, int]:
        # Counts are per op class: one record of each, whatever the mix.
        one_sweep = list({r.cls: r for r in traced.one_sweep()}.values())
        m: Metrics = {
            "apps.build_s": trace.median_s("apps.build"),
            "graph.flatten_s": trace.median_s("graph.flatten"),
            "schedule.build_s": trace.median_s("schedule.build"),
            "passes.compile_s": trace.median_s("passes.compile"),
            "runtime.setup_s": trace.median_s("runtime.setup"),
            "runtime.init_s": trace.median_s("runtime.init"),
            "runtime.steady_s": trace.median_s("runtime.steady"),
            # execute()'s own time: what the three phase spans leave over.
            "runtime.drain_share": _ratio(trace.name_self_s["execute"],
                                          trace.op_wall_s()),
        }
        for name in PASS_NAMES:
            m[f"passes.{name}_s"] = trace.median_s(name)
        # One compiled graph per app, however many classes share it.
        per_app = {r.cls.split("@")[0]: r.info for r in one_sweep}.values()
        for count in ("actors_out", "tapes_out", "simdized_actors"):
            m[f"passes.{count}"] = sum(i.get(count, 0) for i in per_app)
        caches = [r.info["kernel_cache"] for r in traced.records
                  if "kernel_cache" in r.info]
        m["runtime.compiled.kernels_compiled"] = sum(
            r.info["kernel_cache"]["compiled"] for r in one_sweep
            if "kernel_cache" in r.info)
        m["runtime.compiled.cache_hit_ratio"] = _ratio(
            sum(c["hits"] for c in caches), sum(c["lookups"] for c in caches))
        m["runtime.vector.items_per_s_geomean"] = geomean(
            reference.class_items_per_s().values())
        m["runtime.vector.batched_firing_ratio"] = _ratio(
            sum(r.info.get("batched_firings", 0) for r in one_sweep),
            sum(r.info.get("firings", 0) for r in one_sweep))
        m["runtime.vector.fallback_actors"] = sum(
            r.info.get("fallback_actors", 0) for r in one_sweep)
        m["runtime.vector.tape_fallbacks"] = sum(
            r.info.get("tape_fallbacks", 0) for r in one_sweep)
        steady = trace.by_name.get("runtime.steady", [])
        m["runtime.vector.coalesced_ratio"] = _ratio(
            sum(1 for s in steady if s.args.get("coalesced")), len(steady))
        return m, 0


class ColdRun(InProcess):
    name = "cold_run"
    classes = [(app, 2) for app in sorted(BENCHMARKS)]

    def setup(self) -> List[OpRecord]:
        return self.sweep(self.warmup_order())[1]

    def call(self, op: OpClass) -> Tuple[Any, Any]:
        app, iterations = op
        graph, schedule, compiled = self.compile_app(app)
        with self.tracer.span("runtime.executor.execute", cat="bench"):
            result = execute(graph, schedule, machine=MACHINE,
                             iterations=iterations, backend=VectorBackend(),
                             tracer=self.tracer)
        return result, compiled


class SteadyApps(InProcess):
    name = "steady_apps"
    classes = [(app, 64) for app in sorted(BENCHMARKS)
               if app not in STREAM_APPS]

    def layer_metrics(self, trace: Trace, reference: Repeat,
                      traced: Repeat) -> Tuple[Metrics, int]:
        m, failures = super().layer_metrics(trace, reference, traced)
        # The closure compiler on the same graphs: the fallback path's own
        # speed, and the "vector never loses to compiled" gate.
        backend = CompiledBackend()
        vector_s = reference.class_seconds()
        rates, ratios = [], []
        for op in self.classes:
            graph, schedule, _ = self.compiled[op[0]]
            run = dict(machine=MACHINE, backend=backend)
            execute(graph, schedule, iterations=1, **run)       # warm-up
            start = time.perf_counter()
            result = execute(graph, schedule, iterations=op[1], **run)
            seconds = time.perf_counter() - start
            stream = stream_of(result)
            failures += not self.oracle.check(op[0], stream)
            rates.append(len(stream) / seconds)
            ratios.append(seconds / vector_s[label(op)])
        m["runtime.compiled.items_per_s_geomean"] = geomean(rates)
        m["runtime.vector_vs_compiled_geomean"] = geomean(ratios)
        m["runtime.vector_vs_compiled_min"] = min(ratios)
        return m, failures


#: ``steady_stream`` sizes: 32 K elements stay in a 4 MiB L2 through the
#: source, work and sink tapes; 256 K elements (2 MiB per tape) do not.
STREAM_SMALL, STREAM_LARGE = 256, 2048


class SteadyStream(InProcess):
    name = "steady_stream"
    classes = [(app, its) for app in STREAM_APPS
               for its in (STREAM_SMALL, STREAM_LARGE)]

    def copies_of(self, op: OpClass) -> int:
        # Small ops three times as often as large ones: 16 ops a sweep,
        # and the median op is the middle one of StreamAdd@256.
        return 3 if op[1] == STREAM_SMALL else 1

    def layer_metrics(self, trace: Trace, reference: Repeat,
                      traced: Repeat) -> Tuple[Metrics, int]:
        m, failures = super().layer_metrics(trace, reference, traced)
        by_class = reference.by_class()
        elements = int(median(
            r.items for r in by_class[label((STREAM_APPS[0], STREAM_LARGE))]))
        rates, roof_failures = roof.measure(elements)
        failures += roof_failures
        seconds = reference.class_seconds()
        for app, kernel in zip(STREAM_APPS, STREAM_KERNELS):
            m[f"roof.{kernel}_mbps"] = rates[kernel]
            achieved = (roof.WORDS[kernel] * 8 * elements
                        / seconds[label((app, STREAM_LARGE))] / 1e6)
            m[f"runtime.vector.roof_fraction.{kernel}"] = \
                achieved / rates[kernel]
        tape, tape_failures = probes.tape_probe()
        m.update(tape)
        return m, failures + tape_failures


class Multicore2c(InProcess):
    name = "multicore_2c"
    CORES = 2
    PARTITIONER = "lpt"
    classes = [(app, 16) for app in ("FMRadio", "FilterBank",
                                     "ChannelVocoder", "Radar", "BeamFormer",
                                     "AudioBeam", "Vocoder")]

    def call(self, op: OpClass) -> Tuple[Any, Any]:
        app, iterations = op
        graph, schedule, compiled = self.compiled[app]
        # The self time of this span is what execute(cores=2) does before
        # parallel_execute opens its own: profile run, LPT, channel set-up.
        with self.tracer.span("multicore.dispatch", cat="bench"):
            result = execute(graph, schedule, machine=MACHINE,
                             iterations=iterations, backend=self.backend,
                             cores=self.CORES, partitioner=self.PARTITIONER,
                             tracer=self.tracer)
        return result, compiled

    def layer_metrics(self, trace: Trace, reference: Repeat,
                      traced: Repeat) -> Tuple[Metrics, int]:
        m, failures = super().layer_metrics(trace, reference, traced)
        one_sweep = traced.one_sweep()
        two_core_s = reference.class_seconds()
        context_s, partition_s, modeled, measured = [], [], [], []
        cut_tapes = 0
        for op in self.classes:
            graph, schedule, _ = self.compiled[op[0]]
            # Single-thread baseline: the same op at cores=1.
            times = []
            for _ in range(3):
                start = time.perf_counter()
                result = execute(graph, schedule, machine=MACHINE,
                                 iterations=op[1], backend=self.backend)
                times.append(time.perf_counter() - start)
            stream = stream_of(result)
            failures += not self.oracle.check(op[0], stream)
            measured.append(median(times) / two_core_s[label(op)])
            start = time.perf_counter()
            ctx = build_plan_context(graph, MACHINE, schedule=schedule)
            mid = time.perf_counter()
            partition = get_partitioner(self.PARTITIONER, MACHINE)(
                graph, ctx.costs, self.CORES)
            partition_s.append(time.perf_counter() - mid)
            context_s.append(mid - start)
            priced = evaluate_partition(ctx, partition)
            cut_tapes += len(priced.cut_tapes)
            modeled.append(_ratio(ctx.total_work, priced.makespan))
        m["plan.context_s"] = median(context_s)
        m["plan.partition_s"] = median(partition_s)
        m["plan.cut_tapes"] = cut_tapes
        m["plan.modeled_speedup_2c"] = geomean(modeled)
        m["multicore.wall_speedup_2c"] = geomean(measured)
        m["multicore.model_error"] = sum(
            abs(w - p) / p for w, p in zip(measured, modeled)) / len(modeled)
        m["multicore.setup_s"] = m["runtime.setup_s"]
        steady = [sorted(trace.by_name.get(f"core{core}.steady", []),
                         key=lambda s: s.ts) for core in range(self.CORES)]
        imbalance = [max(durs) / (sum(durs) / len(durs))
                     for durs in zip(*[[s.dur for s in spans]
                                       for spans in steady])]
        m["multicore.core_imbalance"] = median(imbalance) if imbalance else 0.0
        m["multicore.channel_items"] = sum(
            r.info.get("channel_items", 0) for r in one_sweep)
        stalls = sum(r.info.get("channel_stalls", 0) for r in traced.records)
        m["multicore.channel_stalls"] = stalls / traced.sweeps
        m["multicore.stall_ratio"] = _ratio(
            stalls, sum(r.info.get("channel_ops", 0) for r in traced.records))
        channel, channel_failures = probes.channel_probe()
        m.update(channel)
        tape, tape_failures = probes.tape_probe()
        m.update(tape)
        return m, failures + channel_failures + tape_failures


# ================================================================ served ops
class Serve(Workload):
    """Closed loop: ``CLIENTS`` threads each submit a session and wait for
    its reply before taking the next op (``pool.run`` callers wait)."""

    CLIENTS = 2
    backend = "compiled"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.pool: Optional[ServePool] = None
        self.spawn_s = 0.0
        self.first_session_s: List[float] = []
        #: one real SessionResult per class, for the wire probes.
        self.samples: Dict[str, Any] = {}

    def copies_of(self, op: OpClass) -> int:
        return max(1, self.copies // 4) if self.quick else self.copies

    def spec(self, op: OpClass) -> SessionSpec:
        return SessionSpec(benchmark=op[0], pipeline=PIPELINE,
                           machine=MACHINE.name, backend=self.backend,
                           iterations=op[1])

    def make_pool(self, **kwargs: Any) -> ServePool:
        # All defaults: shm transport, round-robin, supervision, no store.
        backend = {} if self.backend == "compiled" \
            else {"backend": self.backend}
        return ServePool(WORKERS, **backend, **kwargs)

    def warm(self, pool: ServePool) -> List[OpRecord]:
        """Two back-to-back sessions per class: round-robin places one on
        each idle worker, so every graph cache holds every class."""
        records: List[OpRecord] = []
        for op in self.warmup_order():
            pair = [self.run_session(pool, op) for _ in range(WORKERS)]
            for record, result in pair:
                self._judge(op, record, result)
                records.append(record)
                if result is not None and pool is self.pool:
                    self.samples[label(op)] = result
                    if not result.graph_cache_hit:
                        self.first_session_s.append(result.busy_s)
        return records

    def setup(self) -> List[OpRecord]:
        os.environ.pop(STORE_ENV_VAR, None)
        self.first_session_s = []
        self.samples = {}
        start = time.perf_counter()
        with self.tracer.span("serve.pool.spawn", cat="bench"):
            self.pool = self.make_pool(tracer=self.tracer)
        self.spawn_s = time.perf_counter() - start
        return self.warm(self.pool)

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    def run_session(self, pool: ServePool, op: OpClass
                    ) -> Tuple[OpRecord, Any]:
        tr = self.tracer
        start = time.perf_counter()
        try:
            with tr.span(OP_SPAN, cat="bench", cls=label(op)):
                with tr.span("serve.pool.submit", cat="bench"):
                    ticket = pool.submit(self.spec(op))
                if isinstance(ticket, ServeOverload):
                    return self._failed(op, start, str(ticket)), None
                with tr.span("serve.pool.wait", cat="bench"):
                    result = ticket.result(timeout=SESSION_TIMEOUT_S)
            seconds = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - timeout, closed pool
            return self._failed(op, start,
                                f"{type(exc).__name__}: {exc}"), None
        if not result.ok:
            return self._failed(op, start, result.error), None
        info = {"busy_s": result.busy_s,
                "graph_cache_hit": result.graph_cache_hit}
        if result.kernel_cache:
            info["kernel_cache"] = result.kernel_cache
        return OpRecord(label(op), seconds, info=info), result

    def _judge(self, op: OpClass, record: OpRecord, result: Any) -> None:
        if result is not None:
            stream = stream_of(result)
            record.items = len(stream)
            record.ok = self.oracle.check(op[0], stream)

    def sweep(self, ops: Sequence[OpClass], pool: Optional[ServePool] = None
              ) -> Tuple[float, List[OpRecord]]:
        pool = pool or self.pool
        done: List[Any] = [None] * len(ops)
        lock = threading.Lock()
        cursor = iter(range(len(ops)))

        def client() -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                done[index] = self.run_session(pool, ops[index])

        threads = [threading.Thread(target=client, name=f"bench-client{i}")
                   for i in range(self.CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        # Parity after the clock stops: the parent's CPU is the resource
        # the pump and collector threads share with the clients.
        records = []
        for op, (record, result) in zip(ops, done):
            self._judge(op, record, result)
            records.append(record)
        return wall, records

    def layer_metrics(self, trace: Trace, reference: Repeat,
                      traced: Repeat) -> Tuple[Metrics, int]:
        good = [r for r in reference.records if "busy_s" in r.info]
        if not good:                    # every session failed: nothing to split
            return {}, 0
        served = Repeat(records=good)
        overhead = [(r.seconds - r.info["busy_s"]) * 1e3 for r in good]
        busy = [r.info["busy_s"] * 1e3 for r in good]
        caches = [r.info["kernel_cache"] for r in good
                  if "kernel_cache" in r.info]
        lanes = self.pool.stats_snapshot()
        m: Metrics = {
            "serve.pool.spawn_s": self.spawn_s,
            # The medians use op_p50_ms's estimator, so the two add up to
            # about op_p50_ms; the 95th percentile is over the pooled ops.
            "serve.pool.overhead_ms_p50": served.p50(
                lambda r: (r.seconds - r.info["busy_s"]) * 1e3),
            "serve.pool.overhead_ms_p95": percentile(overhead, 95),
            "serve.pool.worker_util": _ratio(
                sum(busy) / 1e3, reference.wall_s * WORKERS),
            "serve.pool.max_queue_depth":
                max(lane["max_queue_depth"] for lane in lanes),
            "serve.pool.rejected": sum(lane["rejected"] for lane in lanes),
            "serve.pool.restarts": sum(lane["restarts"] for lane in lanes),
            "serve.pool.requeued": sum(lane["requeued"] for lane in lanes),
            "serve.worker.busy_ms_p50": served.p50(
                lambda r: r.info["busy_s"] * 1e3),
            "serve.worker.first_session_ms":
                median(self.first_session_s) * 1e3
                if self.first_session_s else 0.0,
            "serve.worker.graph_cache_hit_ratio": _ratio(
                sum(1 for r in good if r.info["graph_cache_hit"]), len(good)),
            "serve.worker.kernel_cache_hit_ratio": _ratio(
                sum(c["hits"] for c in caches),
                sum(c["lookups"] for c in caches)),
        }
        failures = 0
        samples = [self.samples[label(op)] for op in self.classes
                   if label(op) in self.samples]
        failures += len(self.classes) - len(samples)
        if samples:
            wire, wire_failures = probes.wire_probe(samples)
            m.update(wire)
            failures += wire_failures
        store, store_failures = probes.store_probe(
            [self.spec(op) for op in self.classes], self.backend,
            self.scratch, self._check_result)
        m.update(store)
        failures += store_failures
        ratio, replay_failures = self._shm_vs_queue()
        m["serve.transport.shm_vs_queue_ops"] = ratio
        return m, failures + replay_failures

    def _check_result(self, spec: SessionSpec, result: Any) -> bool:
        return self.oracle.check(spec.benchmark, stream_of(result))

    def _shm_vs_queue(self) -> Tuple[float, int]:
        """The op list replayed on a second pool that never touches shared
        memory, alternating with the pool under test."""
        ops = self.op_list(0)
        failures = 0
        walls = {"shm": 0.0, "queue": 0.0}
        queue_pool = self.make_pool(wire_transport="queue")
        try:
            failures += sum(1 for r in self.warm(queue_pool) if not r.ok)
            for _ in range(1 if self.quick else 2):
                for key, pool in (("shm", self.pool), ("queue", queue_pool)):
                    wall, records = self.sweep(ops, pool)
                    walls[key] += wall
                    failures += sum(1 for r in records if not r.ok)
        finally:
            queue_pool.shutdown()
        return _ratio(walls["queue"], walls["shm"]), failures


class ServeSmall(Serve):
    name = "serve_small"
    classes = [(app, 2) for app in ("FFT", "BitonicSort", "MatrixMult",
                                    "FMRadio", "DES", "AudioBeam", "Vocoder")]
    copies = 32


class ServeBulk(Serve):
    name = "serve_bulk"
    backend = "vector"
    #: 256 iterations x Equation-(1) factor 4 x BLOCK (32) = 32768 items.
    classes = [("StreamTriad", 256), ("StreamCopy", 256), ("StreamAdd", 256),
               ("StreamScale", 256), ("FFT", 64)]
    copies = 6


WORKLOADS = {cls.name: cls for cls in (ColdRun, SteadyApps, SteadyStream,
                                       Multicore2c, ServeSmall, ServeBulk)}
