"""One workload, in this process: set-up, repeats, traced pass, report.

The protocol (README.md, "How a run is measured"):

1. *Set-up*, untimed for the ops but reported as ``setup_s``: the system
   set-up and warm-up run ``SETUP_REPEATS`` times from scratch and the
   median counts; imports and the oracle's reference runs happen once and
   are added to it.
2. *Repeats*: ``REPEATS`` times, whole sweeps of the seed-shuffled op list
   until a third of ``--seconds`` has passed, tracer disabled.  Every value
   is a median or percentile over the pooled sweeps and ops of the three
   repeats; the per-repeat values are printed beside it as min-max.
3. *Traced pass* (``--trace 1``, instead of 1 and 2): one traced set-up,
   one untraced repeat as the reference, one repeat with
   ``repro.obs.Tracer`` enabled and bench-side spans around every layer
   call, then the in-process probes.
"""

from __future__ import annotations

import gc
import resource
import shutil
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Tuple

from repro.obs import Tracer

from . import env
from .layers import Trace
from .metrics import END_TO_END, PER_LAYER, UNITS
from .oracle import Oracle
from .stats import geomean, percentile
from .workloads import MACHINE, WORKLOADS, OpRecord, Repeat, Workload

REPEATS = 3
SETUP_REPEATS = 3
#: below this many pooled ops the 95th percentile has fewer than ten
#: samples beyond it; the report says so.
P95_MIN_OPS = 200

Sampled = Tuple[float, List[float]]      # (reported value, its samples)


def run_repeat(workload: Workload, ops: List[Any], budget_s: float) -> Repeat:
    """Whole sweeps until ``budget_s`` of wall time has passed."""
    gc.collect()
    repeat = Repeat()
    start = time.perf_counter()
    while True:
        repeat.add(*workload.sweep(ops))
        if time.perf_counter() - start >= budget_s:
            return repeat


def pooled(repeats: List[Repeat]) -> Repeat:
    out = Repeat()
    for repeat in repeats:
        out.extend(repeat)
    return out


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest reaped
    child (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def p50_ms(repeat: Repeat) -> float:
    return repeat.p50(lambda r: r.seconds * 1e3)


def p95_ms(repeat: Repeat) -> float:
    """95th-percentile op latency over the pooled ops: the tail is the
    point, so no smoothing."""
    return percentile([r.seconds * 1e3 for r in repeat.records], 95)


def end_to_end(repeats: List[Repeat], setups: List[float]
               ) -> Dict[str, Sampled]:
    everything = pooled(repeats)
    return {
        "setup_s": (median(setups), setups),
        "ops_per_s": (everything.ops_per_s(),
                      [rep.ops_per_s() for rep in repeats]),
        "items_per_s_geomean": (
            geomean(everything.class_items_per_s().values()),
            [geomean(rep.class_items_per_s().values()) for rep in repeats]),
        "op_p50_ms": (p50_ms(everything), [p50_ms(r) for r in repeats]),
        "op_p95_ms": (p95_ms(everything), [p95_ms(r) for r in repeats]),
    }


class Run:
    """State of one workload run; ``execute`` returns the contract's result
    object plus a detail object for the ledger."""

    def __init__(self, name: str, *, seed: int, seconds: float, trace: int,
                 root: Path, started: float, corrupt: bool = False,
                 quick: bool = False) -> None:
        self.seed = seed
        self.budget_s = seconds / REPEATS
        self.traced = bool(trace)
        self.setup_repeats = 1 if quick else SETUP_REPEATS
        self.scratch = root / ".bench_tmp"
        self.tracer = Tracer(enabled=False)
        self.oracle = Oracle(MACHINE, corrupt=corrupt)
        self.workload = WORKLOADS[name](self.oracle, self.tracer,
                                        self.scratch, quick)
        self.import_s = time.perf_counter() - started
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.lines: List[str] = []

    # -- bookkeeping -------------------------------------------------------
    def count(self, records: List[OpRecord]) -> None:
        self.attempted += len(records)
        self.failed += sum(1 for r in records if not r.ok)

    def setup_once(self) -> float:
        """One system set-up; returns its time without the oracle's."""
        oracle_before = self.oracle.build_s
        start = time.perf_counter()
        self.count(self.workload.setup())
        return (time.perf_counter() - start
                - (self.oracle.build_s - oracle_before))

    # -- phases ------------------------------------------------------------
    def execute(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        self.scratch.mkdir(exist_ok=True)
        cpu_before = env.cpu_times()
        try:
            if self.traced:
                self._measure_layers()
            else:
                self._measure_end_to_end()
        finally:
            self.workload.teardown()
            shutil.rmtree(self.scratch, ignore_errors=True)
        if not self.traced:
            # After teardown: the serve workers are reaped only then.
            rss = peak_rss_mb()
            self.metrics["peak_rss_mb"] = rss
            self.samples["peak_rss_mb"] = [rss]
            self.lines.append(f"  {'peak_rss_mb':22s} {rss:14.4f} MB       "
                              f"this process + its largest reaped child")
        stolen = env.steal_share(cpu_before)
        self.lines.append(
            f"  machine: the host withheld {stolen:.1%} of this run's CPU time"
            + (" -- NOISY, do not cite this run"
               if stolen > env.STEAL_LIMIT else ""))
        return self._result()

    def _measure_end_to_end(self) -> None:
        workload = self.workload
        ops = workload.op_list(self.seed)
        system = []
        for index in range(self.setup_repeats):
            if index:
                workload.teardown()
            system.append(self.setup_once())
        fixed = self.import_s + self.oracle.build_s
        # What set-up left behind (graphs, kernels, references) leaves the
        # collector's view, so a full collection during an op costs the
        # same wherever the shuffled order puts it.
        gc.collect()
        gc.freeze()
        repeats = []
        for _ in range(REPEATS):
            repeats.append(run_repeat(workload, ops, self.budget_s))
            self.count(repeats[-1].records)
        for name, (value, samples) in end_to_end(
                repeats, [fixed + s for s in system]).items():
            self.metrics[name] = value
            self.samples[name] = samples
        self._report_end_to_end(repeats, system)

    def _measure_layers(self) -> None:
        workload = self.workload
        ops = workload.op_list(self.seed)
        self.tracer.enabled = True
        self.setup_once()                       # traced: compile-side spans
        self.tracer.enabled = False
        setup_events = len(self.tracer)
        gc.collect()
        gc.freeze()
        reference = run_repeat(workload, ops, self.budget_s)
        self.count(reference.records)
        self.tracer.enabled = True
        traced = run_repeat(workload, ops, self.budget_s)
        self.count(traced.records)
        self.tracer.enabled = False             # probes run untraced
        events = self.tracer.events
        trace = Trace(events, setup_events)
        layers, probe_failures = workload.layer_metrics(
            trace, reference, traced)
        self.attempted += probe_failures
        self.failed += probe_failures
        layers.update({
            "runtime.interp.items_per_s_geomean":
                geomean(self.oracle.interp_items_per_s.values()),
            "obs.tracing_overhead_frac":
                1.0 - traced.ops_per_s() / reference.ops_per_s(),
            "obs.spans_recorded": float(len(events)),
            "bench.blame_residual_frac": trace.blame_residual_frac(),
            "bench.compile_side_frac": trace.compile_side_frac(),
        })
        for name, _unit, _better in PER_LAYER:
            # A layer this workload does not call reads 0.
            self.metrics[name] = float(layers.get(name, 0.0))
        self._report_layers(trace, reference, traced)

    # -- reporting ---------------------------------------------------------
    def _report_end_to_end(self, repeats: List[Repeat],
                           system: List[float]) -> None:
        out = self.lines
        name = self.workload.name
        everything = pooled(repeats)
        out.append(f"== {name}: end to end (seed {self.seed}, {REPEATS} "
                   f"repeats of {self.budget_s:.2f} s, "
                   f"{len(everything.records)} ops in {everything.sweeps} "
                   f"sweeps, tracer off)")
        for metric, _unit, _better, _bound in END_TO_END:
            if metric == "peak_rss_mb":     # known only after teardown
                continue
            samples = self.samples[metric]
            out.append(f"  {metric:22s} {self.metrics[metric]:14.4f} "
                       f"{UNITS[metric]:8s} repeats min-max "
                       f"{min(samples):.4f} .. {max(samples):.4f}")
        out.append(f"  {'failed_frac':22s} "
                   f"{self.failed / max(1, self.attempted):14.4f} "
                   f"{'ratio':8s} {self.failed} of {self.attempted} ops "
                   f"(warm-up included)")
        out.append(f"  set-up: imports {self.import_s:.3f} s + oracle "
                   f"{self.oracle.build_s:.3f} s + system "
                   f"{median(system):.3f} s (median of "
                   f"{', '.join(f'{s:.3f}' for s in system)})")
        if len(everything.records) < P95_MIN_OPS:
            out.append(f"  note: {len(everything.records)} pooled ops; "
                       f"op_p95_ms has fewer than ten samples beyond it")
        out.append(f"  {'class':22s} {'ops':>5s} {'median ms':>11s} "
                   f"{'items':>8s} {'items/s':>13s}")
        seconds = everything.class_seconds()
        rates = everything.class_items_per_s()
        for cls, records in sorted(everything.by_class().items()):
            out.append(f"  {cls:22s} {len(records):5d} "
                       f"{seconds[cls] * 1e3:11.3f} "
                       f"{int(median(r.items for r in records)):8d} "
                       f"{rates[cls]:13.1f}")

    def _report_layers(self, trace: Trace, reference: Repeat,
                       traced: Repeat) -> None:
        out = self.lines
        out.append(f"== {self.workload.name}: per layer (seed {self.seed}; "
                   f"{len(traced.records)} traced ops against "
                   f"{len(reference.records)} untraced, then probes)")
        for name, unit, _better in PER_LAYER:
            out.append(f"  {name:40s} {self.metrics[name]:16.6f} {unit}")
        wall = trace.op_wall_s()
        out.append("  self time by layer, share of the traced ops' wall:")
        shares = dict(trace.layer_self_s)
        shares["(bench residual)"] = trace.op_self_s
        for layer, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
            out.append(f"    {layer:28s} {seconds / wall if wall else 0:7.3f}")

    def _result(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        for problem in self.oracle.problems:
            self.lines.append(f"oracle: {problem}")
        for error in self.workload.errors:
            self.lines.append(f"failed op: {error}")
        wanted = [n for n, *_ in (PER_LAYER if self.traced else END_TO_END)]
        result = {
            "correct": self.failed == 0 and not self.oracle.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name],
                               "unit": UNITS[name]} for name in wanted},
        }
        detail = {"workload": self.workload.name, "seed": self.seed,
                  "samples": self.samples}
        return result, detail
