"""Differential testing: interpreter vs. vector backend.

The vector backend batches many firings into whole-array numpy kernels;
an actor whose work body is not provably vectorizable replays on the
interpreter.  Its contract is the same as the compiled
backend's — *bit-identical observable behaviour*: for every application
in the registry, across every SIMDization option set and every
registered machine, at 1 and 3 steady iterations, it must produce

* identical steady-state and init-phase outputs,
* identical per-actor performance-event bags for both phases,

and repeated vector runs must be deterministic.  Any divergence is a
miscompiled batch kernel (or a fallback that should have fired), never a
tolerance question.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.apps.registry import BENCHMARKS, get_benchmark
from repro.fuzz.harness import OPTION_SETS
from repro.graph.flatten import flatten
from repro.runtime import execute
from repro.simd.machine import CORE_I7, CORE_I7_SAGU, NEON_LIKE, SVE_LIKE
from repro.simd.pipeline import compile_graph

ALL_BENCHMARKS = sorted(BENCHMARKS)

MACHINES = (CORE_I7, CORE_I7_SAGU, NEON_LIKE, SVE_LIKE)

ITERATIONS = (1, 3)


def _counter_bags(per_actor):
    return {
        actor_id: {event: count
                   for event, count in counters.events.items() if count}
        for actor_id, counters in per_actor.by_actor.items()
        if any(counters.events.values())
    }


def assert_vector_agrees(graph, machine, iterations):
    ref = execute(graph, machine=machine, iterations=iterations,
                  backend="interp")
    got = execute(graph, machine=machine, iterations=iterations,
                  backend="vector")
    assert got.backend == "vector"
    assert got.outputs == ref.outputs
    assert got.init_outputs == ref.init_outputs
    assert _counter_bags(got.init_counters) == _counter_bags(ref.init_counters)
    assert _counter_bags(got.steady_counters) == \
        _counter_bags(ref.steady_counters)
    assert got.steady_cycles(machine) == ref.steady_cycles(machine)
    return ref, got


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
class TestFullMatrix:
    """Every app × every option set × every machine × 1 and 3 iterations."""

    def test_parity_across_options_machines_iterations(self, name):
        scalar = flatten(get_benchmark(name))
        checked = 0
        for machine in MACHINES:
            for opt_name, options in OPTION_SETS.items():
                if opt_name == "scalar" and machine is not CORE_I7:
                    continue  # option-independent graph, one machine enough
                graph = compile_graph(scalar, machine, options).graph
                for iterations in ITERATIONS:
                    assert_vector_agrees(graph, machine, iterations)
                    checked += 1
        assert checked == (1 + 4 * (len(OPTION_SETS) - 1)) * len(ITERATIONS)


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
class TestDeterminism:
    def test_repeated_vector_runs_identical(self, name):
        graph = compile_graph(flatten(get_benchmark(name)), CORE_I7).graph
        first = execute(graph, machine=CORE_I7, iterations=2,
                        backend="vector")
        second = execute(graph, machine=CORE_I7, iterations=2,
                         backend="vector")
        assert first.outputs == second.outputs
        assert first.init_outputs == second.init_outputs
        assert _counter_bags(first.steady_counters) == \
            _counter_bags(second.steady_counters)
        assert first.vectorized == second.vectorized


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
class TestNoFallback:
    """Every registry app at ``full`` on core-i7-sse4 batches every actor
    on tapes that keep one kind: a vector run shows no ``fallback:``
    status and no ``(tape fallback`` suffix, and every firing of both
    phases goes through a batch, none through per-firing replay.  A change that starts
    mixing kinds on a real tape (an int on a float tape, say) trips it
    even when the per-firing replay keeps the outputs exact."""

    @pytest.mark.parametrize("iterations", [2, 64])
    def test_full_graph_batches_without_fallback(self, name, iterations):
        graph = compile_graph(flatten(get_benchmark(name)), CORE_I7).graph
        result = execute(graph, machine=CORE_I7, iterations=iterations,
                         backend="vector")
        fallbacks = {graph.actors[a].name: status
                     for a, status in result.vectorized.items()
                     if status.startswith("fallback:")
                     or "(tape fallback" in status}
        assert not fallbacks, fallbacks
        fired = sum(counters.events["fire"]
                    for bag in (result.init_counters, result.steady_counters)
                    for counters in bag.by_actor.values())
        assert result.batched_firings == fired > 0


class TestNonVacuous:
    """The matrix above only means something if kernels actually engage."""

    def test_fmradio_vectorizes_and_produces_output(self):
        graph = compile_graph(flatten(get_benchmark("FMRadio")),
                              CORE_I7).graph
        ref, got = assert_vector_agrees(graph, CORE_I7, 3)
        assert ref.outputs
        assert got.vectorized is not None
        assert any(v == "vector" for v in got.vectorized.values())

    def test_stream_apps_fully_vectorize(self):
        for name in ("StreamCopy", "StreamScale", "StreamAdd",
                     "StreamTriad"):
            graph = flatten(get_benchmark(name))
            _, got = assert_vector_agrees(graph, CORE_I7, 3)
            assert got.vectorized
            assert all(v.startswith("vector")
                       for v in got.vectorized.values()), got.vectorized

    def test_vectorized_reporting_only_on_vector_backend(self):
        graph = flatten(get_benchmark("StreamCopy"))
        assert execute(graph, iterations=1,
                       backend="interp").vectorized is None
        assert execute(graph, iterations=1,
                       backend="compiled").vectorized is None
        assert execute(graph, iterations=1,
                       backend="vector").vectorized is not None
