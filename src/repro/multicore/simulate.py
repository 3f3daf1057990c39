"""Multicore execution model (Figure 13).

Steady-state makespan simulation: each core's time is the modeled cycles of
its assigned actors plus a per-element charge for every tape element that
crosses cores.  The macro-SIMDized variants follow the paper's scheduler:
partition the *scalar* graph first (SIMD-oblivious), then macro-SIMDize
within each core — which is exactly where cross-core fusion/horizontal
opportunities are lost, making these conservative estimates (§5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from ..graph.stream_graph import StreamGraph
from ..perf import events as ev
from ..plan.context import profile_actor_costs
from ..plan.partitioners import Partition, get_partitioner, partition_lpt
from ..runtime.errors import StreamRuntimeError
from ..runtime.executor import execute
from ..simd.machine import MachineDescription
from ..simd.pipeline import MacroSSOptions, compile_graph

__all__ = ["MulticoreResult", "multicore_speedups", "profile_actor_costs",
           "simulate_multicore"]


@dataclass
class MulticoreResult:
    cores: int
    macro_simd: bool
    #: modeled steady cycles of the busiest core, per produced output item.
    makespan_per_output: float
    core_loads: List[float]
    comm_cycles: float


def simulate_multicore(graph: StreamGraph, machine: MachineDescription,
                       cores: int, *,
                       macro_simd: bool = False,
                       options: Optional[MacroSSOptions] = None,
                       partitioner: Union[str, Callable] = partition_lpt,
                       iterations: int = 2) -> MulticoreResult:
    """Partition, optionally SIMDize per core, and compute the makespan.

    ``partitioner`` may be a callable or a registered name
    (``"lpt"``, ``"contiguous"``, ``"opt"``, …) resolved through
    :func:`repro.plan.get_partitioner` with ``machine`` so
    communication-aware strategies price cut edges on the right target.

    Raises :class:`~repro.runtime.errors.StreamRuntimeError` when the
    graph produces no steady-state output — the same contract as
    :meth:`~repro.runtime.executor.ExecutionResult.cycles_per_output`
    (a per-output makespan is meaningless without outputs; it used to be
    silently masked with ``max(1, ...)``).
    """
    if options is None:
        options = MacroSSOptions()
    partitioner = get_partitioner(partitioner, machine)
    costs = profile_actor_costs(graph, machine, iterations=iterations)
    partition = partitioner(graph, costs, cores)

    if macro_simd:
        compiled = compile_graph(graph, machine, options,
                                 partition=partition.assignment)
        exec_graph = compiled.graph
        core_of = compiled.core_assignment
    else:
        exec_graph = graph
        core_of = partition.assignment

    result = execute(exec_graph, machine=machine, iterations=iterations)
    if not result.outputs:
        raise StreamRuntimeError(
            "graph produced no steady-state output — cannot compute a "
            "per-output makespan")
    per_actor = result.actor_cycles(machine)

    loads = [0.0] * cores
    for actor_id, cycles in per_actor.items():
        loads[core_of[actor_id]] += cycles

    # Communication accounting (deliberate, pinned by tests):
    #  * the transfer cost is charged to the *receiving* core only — the
    #    paper's "the receiving core stalls on the transfer" (§5); the
    #    sending side's store is already priced through the producer's
    #    ordinary SCALAR_STORE/VECTOR_STORE events;
    #  * only *steady-state* crossings are charged.  Init-phase items
    #    crossing a cut tape are a one-time priming cost that amortises
    #    to zero in the steady-state per-output makespan, exactly like
    #    init-phase compute cycles (which are likewise excluded).
    comm_price = machine.price(ev.COMM)
    comm_total = 0.0
    reps = result.schedule.reps
    for tape in exec_graph.tapes.values():
        if core_of[tape.src] == core_of[tape.dst]:
            continue
        items = reps[tape.src] * exec_graph.push_rate(tape.src, tape.src_port)
        cost = items * iterations * comm_price
        comm_total += cost
        loads[core_of[tape.dst]] += cost

    outputs = len(result.outputs)
    return MulticoreResult(
        cores=cores,
        macro_simd=macro_simd,
        makespan_per_output=max(loads) / outputs,
        core_loads=[load / outputs for load in loads],
        comm_cycles=comm_total / outputs,
    )


def multicore_speedups(graph: StreamGraph, machine: MachineDescription,
                       core_counts: List[int], *,
                       options: Optional[MacroSSOptions] = None,
                       partitioner: Union[str, Callable] = partition_lpt,
                       iterations: int = 2) -> Dict[str, float]:
    """Figure 13 row for one benchmark: speedup over scalar single-core for
    {N cores} x {scalar, +MacroSS}.

    ``options``, ``partitioner``, and ``iterations`` are forwarded to
    every :func:`simulate_multicore` call (they used to be silently
    dropped, which made the partitioner ablation a no-op through this
    entry point).
    """
    baseline = execute(graph, machine=machine, iterations=iterations)
    base_cpo = baseline.cycles_per_output(machine)
    row: Dict[str, float] = {}
    for cores in core_counts:
        scalar = simulate_multicore(graph, machine, cores, macro_simd=False,
                                    partitioner=partitioner,
                                    iterations=iterations)
        simd = simulate_multicore(graph, machine, cores, macro_simd=True,
                                  options=options, partitioner=partitioner,
                                  iterations=iterations)
        row[f"{cores}c"] = base_cpo / scalar.makespan_per_output
        row[f"{cores}c+simd"] = base_cpo / simd.makespan_per_output
    return row
