"""Parity suite for the thread-based parallel runtime.

The headline guarantee: for every registered app, every SIMDization
preset, both execution backends, and 1/2/4 worker cores, the parallel
executor is *event-identical* to the sequential one — same outputs, same
init outputs, same per-actor counter bags, deterministically.
"""

import pytest

from repro.apps import BENCHMARKS
from repro.fuzz.harness import check_parallel
from repro.multicore import ParallelExecutionResult, parallel_execute
from repro.obs.tracer import Tracer
from repro.perf.counters import counter_bags
from repro.plan import Partition
from repro.runtime import execute
from repro.runtime.errors import StreamRuntimeError
from repro.simd.machine import CORE_I7

from ..conftest import (
    linear_program,
    make_accumulator,
    make_pair_sum,
    make_ramp_source,
    make_scaler,
)


def _pipeline_graph():
    return linear_program(make_ramp_source(4), make_scaler(name="a"),
                          make_accumulator(), make_pair_sum())


# ---------------------------------------------------------------------------
# The full parity matrix, one test per registered app.


@pytest.mark.parametrize("app", sorted(BENCHMARKS))
def test_app_parity(app):
    """{scalar, auto-SIMD} x {interp, compiled[, vector]} x {1, 2, 4}
    cores x {lpt, opt} partitioners must be event-identical to
    sequential execution (one partitioner at 1 core — they coincide)."""
    from repro.experiments.harness import scalar_graph
    from repro.fuzz.harness import (
        PARALLEL_CORES,
        PARALLEL_PARTITIONERS,
        default_backends,
    )
    report = check_parallel(scalar_graph(app), stop_on_first=False)
    assert report.ok, "\n".join(
        f"{d.kind} @ {d.config}: {d.detail}" for d in report.divergences)
    backends = 1 + len(default_backends())
    core_configs = sum(1 if n == 1 else len(PARALLEL_PARTITIONERS)
                       for n in PARALLEL_CORES)
    assert report.configs_checked == 2 * backends * core_configs


def test_determinism_across_runs():
    """Same graph, same partition: two parallel runs agree bit-for-bit
    (Kahn-network determinism made observable)."""
    g = _pipeline_graph()
    runs = [parallel_execute(g, machine=CORE_I7, iterations=3, cores=2)
            for _ in range(3)]
    first = runs[0]
    for other in runs[1:]:
        assert other.outputs == first.outputs
        assert other.init_outputs == first.init_outputs
        assert (counter_bags(other.steady_counters)
                == counter_bags(first.steady_counters))
        assert other.partition == first.partition


# ---------------------------------------------------------------------------
# Result anatomy.


class TestResultAnatomy:
    def _run(self, cores=2):
        g = _pipeline_graph()
        seq = execute(g, machine=CORE_I7, iterations=3)
        par = parallel_execute(g, machine=CORE_I7, iterations=3, cores=cores)
        return seq, par

    def test_is_an_execution_result(self):
        _, par = self._run()
        assert isinstance(par, ParallelExecutionResult)
        assert par.cores == 2
        assert par.wall_time_s > 0

    def test_per_core_bags_merge_to_aggregate(self):
        seq, par = self._run()
        merged = {}
        for counters in par.per_core_steady.values():
            bags = counter_bags(counters)
            assert not set(bags) & set(merged), "cores share an actor"
            merged.update(bags)
        assert merged == counter_bags(seq.steady_counters)
        assert merged == counter_bags(par.steady_counters)

    def test_core_cycles_sum_matches_sequential(self):
        seq, par = self._run()
        assert sum(par.core_cycles(CORE_I7)) == pytest.approx(
            seq.steady_cycles(CORE_I7))

    def test_channel_stats_cover_cut_tapes(self):
        _, par = self._run()
        g = _pipeline_graph()
        core_of = par.partition.assignment
        cut = {tid for tid, e in g.tapes.items()
               if core_of[e.src] != core_of[e.dst]}
        assert set(par.channel_stats) == cut
        for stats in par.channel_stats.values():
            assert stats["max_occupancy"] <= stats["capacity"]
        assert par.total_stalls() >= 0

    def test_single_core_partition_has_no_channels(self):
        _, par = self._run(cores=1)
        assert par.channel_stats == {}
        assert par.cores == 1


# ---------------------------------------------------------------------------
# Partition plumbing and validation.


class TestPartitionPlumbing:
    def test_explicit_dict_partition(self):
        g = _pipeline_graph()
        order = g.ordered_actors()
        mapping = {aid: (0 if i < 2 else 1) for i, aid in enumerate(order)}
        seq = execute(g, machine=CORE_I7, iterations=2)
        par = parallel_execute(g, machine=CORE_I7, iterations=2, cores=2,
                               partition=mapping)
        assert par.outputs == seq.outputs
        assert par.partition.assignment == mapping

    def test_explicit_partition_object(self):
        g = _pipeline_graph()
        part = Partition({aid: 0 for aid in g.actors}, 2)
        par = parallel_execute(g, machine=CORE_I7, iterations=2, cores=2,
                               partition=part)
        assert par.partition is part
        assert par.channel_stats == {}  # nothing crosses cores

    def test_partition_must_cover_all_actors(self):
        g = _pipeline_graph()
        some = next(iter(g.actors))
        with pytest.raises(StreamRuntimeError, match="does not cover"):
            parallel_execute(g, machine=CORE_I7, cores=2,
                             partition={some: 0})

    def test_partition_cores_must_be_in_range(self):
        g = _pipeline_graph()
        bad = {aid: 99 for aid in g.actors}
        with pytest.raises(StreamRuntimeError, match="outside range"):
            parallel_execute(g, machine=CORE_I7, cores=2, partition=bad)

    def test_custom_partitioner_is_used(self):
        from repro.plan import partition_contiguous
        g = _pipeline_graph()
        par = parallel_execute(g, machine=CORE_I7, iterations=2, cores=2,
                               partitioner=partition_contiguous)
        order = g.ordered_actors()
        cores = [par.partition.assignment[aid] for aid in order]
        assert cores == sorted(cores)  # contiguous slices


# ---------------------------------------------------------------------------
# execute() front door.


class TestExecuteFrontDoor:
    def test_cores_kwarg_delegates(self):
        g = _pipeline_graph()
        seq = execute(g, machine=CORE_I7, iterations=2)
        par = execute(g, machine=CORE_I7, iterations=2, cores=2)
        assert isinstance(par, ParallelExecutionResult)
        assert par.outputs == seq.outputs

    def test_partitioner_kwarg_alone_delegates(self):
        from repro.plan import partition_lpt
        g = _pipeline_graph()
        result = execute(g, machine=CORE_I7, iterations=2,
                         partitioner=partition_lpt)
        assert isinstance(result, ParallelExecutionResult)

    def test_zero_cores_rejected(self):
        g = _pipeline_graph()
        with pytest.raises(StreamRuntimeError):
            execute(g, machine=CORE_I7, cores=0)

    def test_cores_one_stays_sequential(self):
        g = _pipeline_graph()
        result = execute(g, machine=CORE_I7, iterations=2, cores=1)
        assert not isinstance(result, ParallelExecutionResult)


# ---------------------------------------------------------------------------
# Tracing.


class TestObservability:
    def test_core_spans_and_channel_instants(self):
        g = _pipeline_graph()
        tracer = Tracer()
        parallel_execute(g, machine=CORE_I7, iterations=2, cores=2,
                         tracer=tracer)
        span_names = {e.name for e in tracer.spans()}
        assert "parallel_execute" in span_names
        assert {"core0", "core0.init", "core0.steady",
                "core1", "core1.init", "core1.steady"} <= span_names
        channel_events = [e for e in tracer.events if e.cat == "channel"]
        assert any(e.name.startswith("channel.tape")
                   for e in channel_events)
