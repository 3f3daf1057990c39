"""Ablation (beyond the paper): multicore partitioner comparison.

LPT (load-balanced, communication-oblivious — the paper's naive scheduler)
vs contiguous topological slicing (keeps pipelines together: fewer cut
tapes, worse balance) at 4 cores.
"""

from repro.experiments.harness import arithmetic_mean, scalar_graph
from repro.experiments.tables import format_table
from repro.plan import (build_plan_context, evaluate_partition,
                        partition_contiguous, partition_lpt)
from repro.simd.machine import CORE_I7

from .conftest import record

BENCHES = ("DCT", "FFT", "FilterBank", "MP3Decoder", "BitonicSort",
           "MatrixMult")


def run_comparison():
    rows = []
    for name in BENCHES:
        graph = scalar_graph(name)
        ctx = build_plan_context(graph, CORE_I7)
        outputs = ctx.outputs_per_iteration
        lpt, contiguous = (
            evaluate_partition(ctx, partitioner(graph, ctx.costs, 4))
            for partitioner in (partition_lpt, partition_contiguous))
        rows.append((name,
                     ctx.total_work / lpt.makespan,
                     ctx.total_work / contiguous.makespan,
                     lpt.comm_cycles / outputs,
                     contiguous.comm_cycles / outputs))
    means = [arithmetic_mean([r[i] for r in rows]) for i in (1, 2)]
    rows.append(("AVERAGE", *means, 0.0, 0.0))
    return rows, means


def test_partitioner_ablation(benchmark):
    rows, means = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    record("ablation_partitioner",
           format_table(["benchmark", "LPT 4c", "contiguous 4c",
                         "LPT comm/out", "contig comm/out"], rows))
    lpt_mean, contig_mean = means
    assert lpt_mean > 1.0
    # Contiguous slicing cuts fewer tapes on deep pipelines.
    by_name = {r[0]: r for r in rows}
    assert by_name["MP3Decoder"][4] <= by_name["MP3Decoder"][3]
