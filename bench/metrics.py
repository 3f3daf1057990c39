"""The benchmark's vocabulary: workloads, metrics, units, directions, bounds.

``BENCHMARK.json`` at the repository root is this table written out
(``python3 bench/run.py --print-manifest``); the smoke test checks that the
two agree and that every name here is emitted.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, why) -- one line each; the long rationale is in README.md.
WORKLOADS: List[Tuple[str, str]] = [
    ("cold_run",
     "19 apps built, compiled, scheduled and run for 2 iterations on a fresh "
     "vector backend: what `macross run` and a serve graph-cache miss cost; "
     "compile layers do nearly all the work"),
    ("steady_apps",
     "15 paper apps pre-compiled on one warm vector backend, 64 iterations: "
     "the data plane where fallbacks, movers and tape degrades dominate; "
     "compile layers do nothing"),
    ("steady_stream",
     "StreamCopy/Scale/Add/Triad at 256 and 2048 iterations: the same vector "
     "and NdTape layers on the pure batched fast path, bandwidth-bound, zero "
     "fallbacks"),
    ("multicore_2c",
     "7 apps through execute(cores=2, partitioner='lpt') at 16 iterations: "
     "the unpaced thread-per-core runtime over Channels; plan, channels and "
     "parallel do the work"),
    ("serve_small",
     "ServePool(2) defaults, closed loop of 2 clients, 7 apps at 2 "
     "iterations: execution is about half the latency, so per-message "
     "overhead (admit, queues, wire, collector) dominates"),
    ("serve_bulk",
     "ServePool(2, backend='vector'), closed loop of 2 clients, 32768-item "
     "results: the same serve layer used by bytes, where encode, transport "
     "and decode dominate"),
]

#: Measured, ledgered and compared like the rest, but not listed in
#: ``BENCHMARK.json``: two threads handing firings to each other under the
#: GIL run at either ~31 or ~21 ops/s for minutes at a time depending on how
#: the host schedules the two vCPUs, so two ten-seed sets of one commit
#: differ by more than any bound the contract allows (README.md, "Noise
#: floor").  ROADMAP 3a (process per core) is expected to end that; list it
#: then.
UNGATED = ("multicore_2c",)

#: (name, unit, better, bound) -- what a user of the system sees.  The bound
#: is the share of the parent's median by which a later change may worsen
#: the metric.  The timing bounds are the noise floor of the 2-vCPU VM the
#: benchmark was defined on, not a wish: ten runs of one commit spread (first
#: to third quartile) by up to 0.22 of their median there, whatever the
#: estimator (README.md, "Noise floor").  ``failed_frac`` is the seventh
#: end-to-end metric; it is 0 on a healthy tree, so the contract carries it
#: as ``failed``/``attempted`` and ``compare.py`` rejects any increase.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("items_per_s_geomean", "items/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]
FAILED_FRAC = ("failed_frac", "ratio", "lower", 0.0)

PASS_NAMES = ("prepass.analysis", "segments.horizontal", "segments.vertical",
              "vertical.fuse", "repetition.adjust", "single_actor.vectorize",
              "horizontal.apply", "tape.optimize")
STREAM_KERNELS = ("copy", "scale", "add", "triad")

#: (name, unit, better) -- single layers; no bounds.  A layer a workload
#: does not call reads 0 there.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("apps.build_s", "s", "lower"),
    ("graph.flatten_s", "s", "lower"),
    ("schedule.build_s", "s", "lower"),
    ("passes.compile_s", "s", "lower"),
    *[(f"passes.{name}_s", "s", "lower") for name in PASS_NAMES],
    ("passes.actors_out", "count", "lower"),
    ("passes.tapes_out", "count", "lower"),
    ("passes.simdized_actors", "count", "higher"),
    ("runtime.setup_s", "s", "lower"),
    ("runtime.init_s", "s", "lower"),
    ("runtime.steady_s", "s", "lower"),
    ("runtime.drain_share", "ratio", "lower"),
    ("runtime.compiled.kernels_compiled", "count", "lower"),
    ("runtime.compiled.cache_hit_ratio", "ratio", "higher"),
    ("runtime.compiled.items_per_s_geomean", "items/s", "higher"),
    ("runtime.vector.items_per_s_geomean", "items/s", "higher"),
    ("runtime.vector.batched_firing_ratio", "ratio", "higher"),
    ("runtime.vector.fallback_actors", "count", "lower"),
    ("runtime.vector.tape_fallbacks", "count", "lower"),
    ("runtime.vector.coalesced_ratio", "ratio", "higher"),
    ("runtime.vector_vs_compiled_geomean", "ratio", "higher"),
    ("runtime.vector_vs_compiled_min", "ratio", "higher"),
    *[(f"runtime.vector.roof_fraction.{k}", "ratio", "higher")
      for k in STREAM_KERNELS],
    ("runtime.interp.items_per_s_geomean", "items/s", "higher"),
    ("runtime.tape.list_items_per_s", "items/s", "higher"),
    ("runtime.tape.nd_items_per_s", "items/s", "higher"),
    ("runtime.tape.nd_degrades", "count", "lower"),
    *[(f"roof.{k}_mbps", "MB/s", "higher") for k in STREAM_KERNELS],
    ("plan.context_s", "s", "lower"),
    ("plan.partition_s", "s", "lower"),
    ("plan.cut_tapes", "count", "lower"),
    ("plan.modeled_speedup_2c", "ratio", "higher"),
    ("multicore.wall_speedup_2c", "ratio", "higher"),
    ("multicore.model_error", "ratio", "lower"),
    ("multicore.setup_s", "s", "lower"),
    ("multicore.core_imbalance", "ratio", "lower"),
    ("multicore.channel_items", "count", "lower"),
    ("multicore.channel_stalls", "count", "lower"),
    ("multicore.stall_ratio", "ratio", "lower"),
    ("multicore.channel_items_per_s", "items/s", "higher"),
    ("serve.pool.spawn_s", "s", "lower"),
    ("serve.pool.overhead_ms_p50", "ms", "lower"),
    ("serve.pool.overhead_ms_p95", "ms", "lower"),
    ("serve.pool.worker_util", "ratio", "higher"),
    ("serve.pool.max_queue_depth", "count", "lower"),
    ("serve.pool.rejected", "count", "lower"),
    ("serve.pool.restarts", "count", "lower"),
    ("serve.pool.requeued", "count", "lower"),
    ("serve.worker.busy_ms_p50", "ms", "lower"),
    ("serve.worker.first_session_ms", "ms", "lower"),
    ("serve.worker.graph_cache_hit_ratio", "ratio", "higher"),
    ("serve.worker.kernel_cache_hit_ratio", "ratio", "higher"),
    ("serve.session.encode_ms", "ms", "lower"),
    ("serve.session.decode_ms", "ms", "lower"),
    ("serve.session.wire_bytes", "bytes", "lower"),
    ("serve.transport.shm_stage_ms", "ms", "lower"),
    ("serve.transport.shm_load_ms", "ms", "lower"),
    ("serve.transport.queue_pickle_ms", "ms", "lower"),
    ("serve.transport.shm_vs_queue_ops", "ratio", "higher"),
    ("serve.store.publish_ms", "ms", "lower"),
    ("serve.store.load_ms", "ms", "lower"),
    ("serve.store.hit_ratio", "ratio", "higher"),
    ("serve.store.warm_vs_cold", "ratio", "higher"),
    ("obs.tracing_overhead_frac", "ratio", "lower"),
    ("obs.spans_recorded", "count", "lower"),
    ("bench.blame_residual_frac", "ratio", "lower"),
    ("bench.compile_side_frac", "ratio", "lower"),
]

#: Per-layer counts that must repeat exactly from run to run (a change in
#: one explains a change in a rate; a difference between two runs of one
#: commit is a bug).  Stall and queue-depth counts depend on thread timing
#: and are not in this set.
EXACT_COUNTS = (
    "passes.actors_out", "passes.tapes_out", "passes.simdized_actors",
    "runtime.vector.fallback_actors", "runtime.vector.tape_fallbacks",
    "runtime.tape.nd_degrades", "plan.cut_tapes", "multicore.channel_items",
    "serve.pool.rejected", "serve.pool.restarts", "serve.pool.requeued",
)

#: The measured phase of one contract run, seconds.
RUN_SECONDS = 15

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in
                         [*END_TO_END, FAILED_FRAC, *PER_LAYER]}


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS
                      if n not in UNGATED],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
