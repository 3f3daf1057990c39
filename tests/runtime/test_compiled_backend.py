"""Unit tests for the compiled execution backend itself: kernel caching,
typed constant abstraction, shape-guard behaviour, and backend plumbing."""

import pytest

from repro.graph import FilterSpec, Program, StateVar, flatten, pipeline, splitjoin
from repro.graph.builtins import duplicate_splitter, roundrobin_joiner
from repro.ir import FLOAT, WorkBuilder
from repro.ir.structhash import isomorphic
from repro.runtime import execute, resolve_backend
from repro.runtime.backends import InterpreterBackend
from repro.runtime.compiled import (
    CompiledBackend,
    KernelCache,
    typed_canonicalize,
)
from repro.runtime.errors import StreamRuntimeError
from repro.simd.machine import CORE_I7

from ..conftest import make_ramp_source, make_scaler


def _scaler_graph(*factors):
    """Source feeding a duplicate split-join of one scaler per factor."""
    branches = [make_scaler(f, name=f"scale{i}")
                for i, f in enumerate(factors)]
    if len(branches) == 1:
        return flatten(Program(
            "scalers", pipeline(make_ramp_source(4), branches[0])))
    sj = splitjoin(duplicate_splitter(len(branches)), branches,
                   roundrobin_joiner([1] * len(branches)))
    return flatten(Program(
        "scalers",
        pipeline(make_ramp_source(4), sj, make_scaler(1.0, name="tail"))))


class TestKernelSharing:
    def test_structhash_equal_actors_compile_once(self):
        """Four scalers differing only in their constant share one kernel."""
        specs = [make_scaler(f) for f in (2.0, 3.0, 5.0, 7.0)]
        for a in specs[1:]:
            assert isomorphic(specs[0].work_body, a.work_body)
        graph = _scaler_graph(2.0, 3.0, 5.0, 7.0)
        backend = CompiledBackend()
        execute(graph, backend=backend, iterations=1)
        stats = backend.cache.stats
        # 6 filters (source + 4 scalers + tail scaler), one init and one
        # work lookup each.
        assert stats.lookups == 12
        # Distinct kernels actually compiled: the shared scaler work body,
        # the source work body, and the (empty) init bodies of the
        # stateless scalers resp. the stateful source.  Everything else —
        # in particular the 2nd..4th scalers and the tail — must hit.
        assert stats.compiled == 4
        assert stats.hits == 8
        scaler_canon = typed_canonicalize(specs[0].work_body).body
        compiled_bodies = [body for body, _ in backend.cache._kernels]
        assert compiled_bodies.count(scaler_canon) == 1

    def test_cache_persists_across_executions(self):
        graph = _scaler_graph(2.0, 3.0)
        backend = CompiledBackend()
        execute(graph, backend=backend, iterations=1)
        compiled_first = backend.cache.stats.compiled
        execute(graph, backend=backend, iterations=1)
        assert backend.cache.stats.compiled == compiled_first
        assert backend.cache.stats.hits > compiled_first

    def test_distinct_structures_do_not_collide(self):
        """A scaler and an adder must not share a kernel."""
        b = WorkBuilder()
        with b.loop("i", 0, 1):
            b.push(b.pop() + 2.0)
        adder = FilterSpec("adder", pop=1, push=1, work_body=b.build())
        scaler = make_scaler(2.0)
        assert not isomorphic(scaler.work_body, adder.work_body)
        graph = flatten(Program("mix", pipeline(
            make_ramp_source(4), scaler, adder)))
        backend = CompiledBackend()
        result = execute(graph, backend=backend, iterations=2)
        ref = execute(graph, iterations=2)
        assert result.outputs == ref.outputs


class TestTypedConstants:
    def test_int_and_float_constants_stay_distinct(self):
        """C semantics: 7 / 2 == 3 but 7.0 / 2.0 == 3.5.  A cache keyed on
        the float-coerced structhash canonical form would conflate the two
        bodies; the typed canonicalisation must not."""
        def div_spec(value, name):
            b = WorkBuilder()
            b.push(b.pop() / value)
            return FilterSpec(name, pop=1, push=1, work_body=b.build())

        int_div = div_spec(2, "intdiv")
        float_div = div_spec(2.0, "floatdiv")
        assert isomorphic(int_div.work_body, float_div.work_body)

        b = WorkBuilder()
        t = b.var("t")
        b.push(t)
        b.set(t, t + 1)
        int_src = FilterSpec("isrc", pop=0, push=1,
                             state=(StateVar("t", FLOAT, 0, 7),),
                             work_body=b.build())
        for spec in (int_div, float_div):
            graph = flatten(Program("div", pipeline(int_src, spec)))
            ref = execute(graph, iterations=4)
            got = execute(graph, iterations=4, backend=CompiledBackend())
            assert got.outputs == ref.outputs

    def test_canonical_consts_preserve_types(self):
        b = WorkBuilder()
        b.push(b.pop() / 2)
        canon_int = typed_canonicalize(b.build())
        b2 = WorkBuilder()
        b2.push(b2.pop() / 2.0)
        canon_float = typed_canonicalize(b2.build())
        assert canon_int.body == canon_float.body  # structurally shared
        # NB: (2,) == (2.0,) in Python — the *types* carry the semantics.
        assert type(canon_int.consts[0]) is int
        assert type(canon_float.consts[0]) is float


class TestBackendResolution:
    def test_strings_resolve(self):
        assert isinstance(resolve_backend("interp"), InterpreterBackend)
        assert resolve_backend("compiled").name == "compiled"

    def test_compiled_string_is_singleton(self):
        assert resolve_backend("compiled") is resolve_backend("compiled")

    def test_object_passthrough(self):
        backend = CompiledBackend(cache=KernelCache())
        assert resolve_backend(backend) is backend

    def test_unknown_backend_raises(self):
        with pytest.raises(StreamRuntimeError, match="unknown backend"):
            execute(_scaler_graph(2.0), backend="jit")

    def test_result_records_backend(self):
        graph = _scaler_graph(2.0)
        assert execute(graph, iterations=1).backend == "interp"
        assert execute(graph, iterations=1,
                       backend="compiled").backend == "compiled"


class TestBoundedCacheEviction:
    def test_unbounded_cache_never_evicts(self):
        """Every kernel compiled stays resident: residency equals the
        compile count."""
        backend = CompiledBackend(cache=KernelCache())
        execute(_scaler_graph(2.0, 3.0), backend=backend, iterations=1)
        assert len(backend.cache) == backend.cache.stats.compiled
