"""The per-worker persistent environment: served sessions must match
direct execution, repeated sessions must recompile nothing, and both
caches must respect their residency bounds."""

from __future__ import annotations

import random

import pytest

from repro.fuzz import desc_to_dict, generate_program
from repro.graph.flatten import flatten
from repro.perf.counters import counter_bags
from repro.runtime import execute
from repro.schedule import build_schedule
from repro.serve import SessionSpec, WorkerEnv
from repro.simd import CORE_I7, compile_graph


def direct_reference(spec: SessionSpec, machine=CORE_I7):
    """What ``execute`` produces for ``spec`` without any serving layer."""
    from repro.apps import get_benchmark
    graph = flatten(get_benchmark(spec.benchmark))
    if spec.pipeline is not None:
        graph = compile_graph(graph, machine, pipeline=spec.pipeline).graph
    return execute(graph, build_schedule(graph), machine=machine,
                   iterations=spec.iterations, backend=spec.backend)


class TestParity:
    @pytest.mark.parametrize("pipeline", ["full", "scalar", None])
    def test_session_matches_direct_execute(self, pipeline):
        spec = SessionSpec(benchmark="DCT", pipeline=pipeline, iterations=2)
        env = WorkerEnv("compiled")
        result = env.run_session(spec)
        assert result.ok, result.error
        ref = direct_reference(spec)
        assert result.outputs == list(ref.outputs)
        assert result.init_outputs == list(ref.init_outputs)
        assert result.steady_bags == counter_bags(ref.steady_counters)
        assert result.init_bags == counter_bags(ref.init_counters)

    def test_interp_backend_serves_too(self):
        spec = SessionSpec(benchmark="FFT", backend="interp", iterations=2)
        env = WorkerEnv("interp")
        result = env.run_session(spec)
        assert result.ok, result.error
        ref = direct_reference(spec)
        assert result.outputs == list(ref.outputs)
        assert result.kernel_cache is None

    def test_fuzz_program_session(self):
        desc = generate_program(random.Random(0))
        spec = SessionSpec(program=desc_to_dict(desc), pipeline="full",
                           iterations=2)
        env = WorkerEnv("compiled")
        result = env.run_session(spec)
        assert result.ok, result.error
        assert result.graph_name


class TestVectorServing:
    """The vector backend serves through the same worker path: private
    per-worker backend, wire-preserved spec, parity with both direct
    vector execution and the interpreter reference."""

    def setup_method(self):
        pytest.importorskip("numpy")

    def test_vector_env_owns_a_private_vector_backend(self):
        from repro.runtime.vector import VectorBackend
        env_a, env_b = WorkerEnv("vector"), WorkerEnv("vector")
        assert isinstance(env_a.backend, VectorBackend)
        # Private per worker, not the resolve_backend singleton.
        assert env_a.backend is not env_b.backend
        from repro.runtime.backends import resolve_backend
        assert env_a.backend is not resolve_backend("vector")

    def test_backend_survives_the_wire(self):
        spec = SessionSpec(benchmark="FMRadio", backend="vector",
                           iterations=2)
        assert SessionSpec.from_wire(spec.to_wire()) == spec

    @pytest.mark.parametrize("app", ["FMRadio", "StreamTriad"])
    def test_vector_session_matches_direct_and_interp(self, app):
        spec = SessionSpec(benchmark=app, backend="vector",
                           pipeline="full", iterations=2)
        env = WorkerEnv("vector")
        result = env.run_session(spec)
        assert result.ok, result.error
        assert result.backend == "vector"
        ref = direct_reference(spec)
        assert result.outputs == list(ref.outputs)
        assert result.init_outputs == list(ref.init_outputs)
        assert result.steady_bags == counter_bags(ref.steady_counters)
        assert result.init_bags == counter_bags(ref.init_counters)
        # Served vector output is also interpreter-exact.
        interp = direct_reference(SessionSpec(
            benchmark=app, backend="interp", pipeline="full",
            iterations=2))
        assert result.outputs == list(interp.outputs)

    def test_vector_env_reuses_kernel_and_graph_caches(self):
        env = WorkerEnv("vector")
        spec = SessionSpec(benchmark="FFT", backend="vector", iterations=2)
        first = env.run_session(spec)
        second = env.run_session(spec)
        assert first.ok and second.ok
        assert not first.graph_cache_hit and second.graph_cache_hit
        assert dict(second.kernel_cache)["compiled"] == 0


class TestSessionErrors:
    def test_bad_benchmark_is_reported_not_raised(self):
        env = WorkerEnv("compiled")
        result = env.run_session(SessionSpec(benchmark="NoSuchApp"))
        assert not result.ok
        assert "NoSuchApp" in result.error
        assert env.stats.errors == 1
        # The environment survives: the next session still works.
        again = env.run_session(SessionSpec(benchmark="DCT", iterations=1))
        assert again.ok, again.error


class TestGraphCache:
    def test_repeat_sessions_hit_the_graph_cache(self):
        env = WorkerEnv("compiled")
        spec = SessionSpec(benchmark="DCT", iterations=2)
        first = env.run_session(spec)
        second = env.run_session(spec)
        assert not first.graph_cache_hit
        assert second.graph_cache_hit
        assert env.stats.graph_cache_hits == 1
        assert env.stats.graph_cache_misses == 1
        assert second.outputs == first.outputs

    def test_iterations_do_not_split_the_cache(self):
        env = WorkerEnv("compiled")
        env.run_session(SessionSpec(benchmark="DCT", iterations=1))
        result = env.run_session(SessionSpec(benchmark="DCT", iterations=3))
        assert result.graph_cache_hit


class TestKernelCacheReuse:
    """Satellite: cross-session kernel-cache reuse via structhash keys."""

    def _deltas(self, env: WorkerEnv, spec: SessionSpec, n: int):
        deltas = []
        for _ in range(n):
            result = env.run_session(spec)
            assert result.ok, result.error
            deltas.append(dict(result.kernel_cache))
        return deltas

    def test_repeat_sessions_recompile_nothing(self):
        env = WorkerEnv("compiled")
        spec = SessionSpec(benchmark="FFT", iterations=2)
        first, *rest = self._deltas(env, spec, 3)
        assert first["compiled"] > 0
        for delta in rest:
            assert delta["compiled"] == 0
            assert delta["hits"] == delta["lookups"] > 0

    def test_hit_rate_is_deterministic_across_fresh_environments(self):
        """Two identical session streams against two fresh environments
        must show identical per-session cache deltas — the structhash
        key is content-addressed, not run-dependent."""
        specs = [SessionSpec(benchmark=name, iterations=2)
                 for name in ("DCT", "FFT", "DCT", "FFT", "DCT")]
        runs = []
        for _ in range(2):
            env = WorkerEnv("compiled")
            runs.append([dict(env.run_session(s).kernel_cache)
                         for s in specs])
        assert runs[0] == runs[1]
        # And the stream's shape is what persistence predicts: sessions
        # 3..5 (repeats) compile nothing.
        for delta in runs[0][2:]:
            assert delta["compiled"] == 0
