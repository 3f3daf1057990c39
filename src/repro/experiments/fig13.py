"""Figure 13: multicore scheduling with and without macro-SIMDization.

Speedup over scalar single-core execution for {2, 4} cores, scalar vs
partition-first macro-SIMDized.  The paper's averages: 2 cores 1.28x ->
2.03x with SIMD; 4 cores 1.85x -> 3.17x; macro-SIMDized 2-core execution
comes within ~5% of (our model: beats) scalar 4-core execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..graph.stream_graph import StreamGraph
from ..plan import (Partition, build_plan_context, evaluate_partition,
                    get_partitioner, partition_lpt)
from ..simd.machine import CORE_I7, MachineDescription
from ..simd.pipeline import MacroSSOptions, compile_graph
from .harness import arithmetic_mean, resolve_benchmarks, scalar_graph
from .tables import format_table

CORE_COUNTS = (2, 4)
COLUMNS = ("2c", "4c", "2c+simd", "4c+simd")


def multicore_speedups(graph: StreamGraph, machine: MachineDescription,
                       core_counts: List[int], *,
                       options: Optional[MacroSSOptions] = None,
                       partitioner: Union[str, Callable] = partition_lpt,
                       iterations: int = 2) -> Dict[str, float]:
    """Figure 13 row for one benchmark: speedup over scalar single-core
    execution for {N cores} x {scalar, +MacroSS}.

    The paper's §5 scheduler: partition the *scalar* graph first
    (``partitioner`` is a callable or a registered name), then
    macro-SIMDize within each core — which is where cross-core
    fusion/horizontal opportunities are lost, making the +MacroSS columns
    conservative.  Every partition is priced per output item by
    :func:`~repro.plan.evaluate_partition` on a context profiled over
    ``iterations`` steady iterations; ``options`` reaches every compile.
    """
    partitioner = get_partitioner(partitioner, machine)
    scalar = build_plan_context(graph, machine, iterations=iterations)
    base = scalar.total_work / scalar.outputs_per_iteration
    row: Dict[str, float] = {}
    for cores in core_counts:
        part = partitioner(graph, scalar.costs, cores)
        compiled = compile_graph(graph, machine, options,
                                 partition=part.assignment)
        simd = build_plan_context(compiled.graph, machine,
                                  iterations=iterations)
        for key, ctx, plan in (
                (f"{cores}c", scalar, part),
                (f"{cores}c+simd", simd,
                 Partition(compiled.core_assignment, cores))):
            makespan = evaluate_partition(ctx, plan).makespan
            row[key] = base / (makespan / ctx.outputs_per_iteration)
    return row


@dataclass(frozen=True)
class Fig13Row:
    benchmark: str
    speedups: Dict[str, float]


@dataclass(frozen=True)
class Fig13Result:
    rows: Tuple[Fig13Row, ...]

    def mean(self, column: str) -> float:
        return arithmetic_mean([r.speedups[column] for r in self.rows])

    def render(self) -> str:
        body = [(r.benchmark, *(r.speedups[c] for c in COLUMNS))
                for r in self.rows]
        body.append(("AVERAGE", *(self.mean(c) for c in COLUMNS)))
        return format_table(["benchmark", "2 cores", "4 cores",
                             "2 cores + MacroSS", "4 cores + MacroSS"], body)


def run_fig13(machine: MachineDescription = CORE_I7,
              benchmarks: Optional[Sequence[str]] = None) -> Fig13Result:
    rows: List[Fig13Row] = []
    for name in resolve_benchmarks(benchmarks):
        graph = scalar_graph(name)
        rows.append(Fig13Row(name, multicore_speedups(
            graph, machine, list(CORE_COUNTS))))
    return Fig13Result(tuple(rows))


if __name__ == "__main__":  # pragma: no cover
    print(run_fig13().render())
