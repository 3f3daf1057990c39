"""Turn one traced pass into per-layer numbers.

The traced pass records two kinds of spans into one ``repro.obs.Tracer``:
``bench/``-side spans (category ``"bench"``) around every call into a
layer, and the spans the program already emits through its public
``tracer=`` parameters (pass manager, executor, parallel runtime).  A span's
*self time* is its duration minus the part its child spans cover; summed by
layer the self times account for the op's wall time, and what is left on the
op span itself is the benchmark's own residual.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: Bench-side root span of one op.
OP_SPAN = "op"

#: Layers whose time is compile-side (the acceptance split of ``cold_run``
#: against ``steady_apps``); ``runtime.setup`` is added by span name.
COMPILE_LAYERS = ("apps", "graph", "passes", "schedule")


def layer_of(event: Any) -> str:
    """Module a span's self time is blamed on."""
    if event.cat == "bench":
        # bench-side spans are named "<layer>.<verb>".
        return event.name.rsplit(".", 1)[0]
    if event.cat in ("pass", "driver"):
        return "passes"
    if event.cat == "core" or event.name == "parallel_execute":
        return "multicore"
    if event.cat == "runtime":
        return "runtime.executor"
    return event.cat or "other"


def self_times(spans: Iterable[Any]) -> List[Tuple[Any, float, bool]]:
    """``(span, self time in seconds, inside an op span)`` for every span.
    Spans of one thread are disjoint or nested (the tracer closes them
    LIFO), so one stack per thread recovers the tree."""
    by_thread: Dict[int, List[Any]] = defaultdict(list)
    for span in spans:
        by_thread[span.tid].append(span)
    out: List[Tuple[Any, float, bool]] = []

    def close(stack: List[List[Any]]) -> None:
        done, covered = stack.pop()
        in_op = any(parent.name == OP_SPAN and parent.cat == "bench"
                    for parent, _ in stack)
        out.append((done, (done.dur - covered) / 1e6, in_op))

    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda e: (e.ts, -e.dur))
        stack: List[List[Any]] = []     # [span, time covered by children]
        for span in thread_spans:
            while stack and span.ts >= stack[-1][0].end:
                close(stack)
            if stack:
                stack[-1][1] += span.dur
            stack.append([span, 0.0])
        while stack:
            close(stack)
    return out


class Trace:
    """Indexed view of what one tracer recorded: the traced set-up's events
    first (``setup_events`` of them), then the traced pass's."""

    def __init__(self, events: Sequence[Any], setup_events: int) -> None:
        spans = [e for e in events[setup_events:] if e.ph == "X"]
        self.by_name: Dict[str, List[Any]] = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)
        #: spans of the set-up, for layers the pass's ops never call
        #: (compile-side layers of the pre-compiled workloads).
        self.setup_by_name: Dict[str, List[Any]] = defaultdict(list)
        for event in events[:setup_events]:
            if event.ph == "X":
                self.setup_by_name[event.name].append(event)
        #: self time per layer, over the spans inside the pass's ops.
        self.layer_self_s: Dict[str, float] = defaultdict(float)
        self.name_self_s: Dict[str, float] = defaultdict(float)
        self.op_self_s = 0.0
        self.compile_side_s = 0.0
        for span, self_s, in_op in self_times(spans):
            if span.name == OP_SPAN and span.cat == "bench":
                self.op_self_s += self_s
            elif in_op:
                layer = layer_of(span)
                self.layer_self_s[layer] += self_s
                self.name_self_s[span.name] += self_s
                if layer in COMPILE_LAYERS or span.name == "runtime.setup":
                    self.compile_side_s += self_s

    def median_s(self, name: str) -> float:
        """Median duration of the spans called ``name``: those of the
        traced pass, else those of the set-up, else 0 (layer not called)."""
        spans = self.by_name.get(name) or self.setup_by_name.get(name)
        return median(s.dur for s in spans) / 1e6 if spans else 0.0

    def total_s(self, name: str) -> float:
        return sum(s.dur for s in self.by_name.get(name, ())) / 1e6

    def op_wall_s(self) -> float:
        return self.total_s(OP_SPAN)

    def blame_residual_frac(self) -> float:
        """Share of the ops' wall time no layer span covers."""
        wall = self.op_wall_s()
        return self.op_self_s / wall if wall else 0.0

    def compile_side_frac(self) -> float:
        """Share of the ops' wall time spent compile-side: apps + graph +
        passes + schedule + the executor's kernel set-up."""
        wall = self.op_wall_s()
        return self.compile_side_s / wall if wall else 0.0
