"""Unit tests for the compiled execution backend itself: kernel caching,
typed and signed constants, unbound parameters, and backend plumbing."""

import pytest

from repro.graph import FilterSpec, Program, StateVar, flatten, pipeline, splitjoin
from repro.graph.builtins import duplicate_splitter, roundrobin_joiner
from repro.ir import FLOAT, WorkBuilder
from repro.ir import expr as E
from repro.ir import structhash
from repro.ir.structhash import exact_consts, isomorphic, same_constants
from repro.runtime import execute, resolve_backend
from repro.runtime.backends import InterpreterBackend
from repro.runtime.cache import KernelCache
from repro.runtime.compiled import CompiledBackend
from repro.runtime.compiled.compiler import Specialization, compile_kernel
from repro.runtime.errors import InterpreterError, StreamRuntimeError
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
    def test_equal_bodies_compile_once(self):
        """Kernels are keyed by the body itself: three scalers built with
        one factor share a kernel, while the isomorphic scalers with
        another constant (§3.3's compile-time equivalence) each get
        their own."""
        specs = [make_scaler(f) for f in (2.0, 2.0, 2.0, 3.0)]
        assert specs[0].work_body is not specs[1].work_body
        assert specs[0].work_body == specs[1].work_body
        assert isomorphic(specs[0].work_body, specs[3].work_body)
        graph = _scaler_graph(2.0, 2.0, 2.0, 3.0)
        backend = CompiledBackend()
        execute(graph, backend=backend, iterations=1)
        stats = backend.cache.stats
        # 6 filters (source + 4 scalers + tail scaler), one init and one
        # work lookup each.
        assert stats.lookups == 12
        # Distinct kernels actually compiled: the work bodies of the
        # source and of the scalers by 2.0, 3.0 and 1.0 (the tail), and
        # the (empty) init bodies of the stateless scalers resp. the
        # stateful source.  The 2nd and 3rd scalers by 2.0 must hit.
        assert stats.compiled == 6
        assert stats.hits == 6
        compiled_bodies = [body for body, _ in backend.cache._kernels]
        assert compiled_bodies.count(specs[0].work_body) == 1
        assert compiled_bodies.count(specs[3].work_body) == 1

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

    def test_other_constant_types_compile_apart(self):
        def div_body(const):
            b = WorkBuilder()
            b.push(b.pop() / const)
            return b.build()

        # IntConst(2) and FloatConst(2.0) are different nodes, but
        # FloatConst(2) == FloatConst(2.0): only exact_consts sees the
        # type that decides C-style ``/``.
        assert div_body(2) != div_body(2.0)
        int_body, float_body = div_body(E.FloatConst(2)), div_body(2.0)
        assert int_body == float_body
        assert exact_consts(int_body) != exact_consts(float_body)
        assert not same_constants(int_body, float_body)
        assert same_constants(float_body, div_body(2.0))
        cache = KernelCache()
        spec = Specialization(is_work=True, simd_width=4, has_sagu=False,
                              in_lane_ordered=False, out_lane_ordered=False,
                              state_names=frozenset(),
                              vectors=frozenset())
        first = cache.get(int_body, spec,
                          lambda: compile_kernel(int_body, spec))
        assert cache.get(float_body, spec,
                         lambda: compile_kernel(float_body, spec)) is not first
        assert cache.stats.compiled == 2

    def test_signed_zero_constants_do_not_share_a_memo_entry(self):
        """``FloatConst(0.0) == FloatConst(-0.0)``, so the two bodies are
        equal keys of the kernel cache; one backend must still run each
        with its own constant's sign."""
        from repro.apps.sources import lcg_source

        def graph(zero):
            b = WorkBuilder()
            b.push(b.pop() * zero)
            spec = FilterSpec("mul", pop=1, push=1, work_body=b.build())
            return flatten(Program("zero", pipeline(
                lcg_source("src", push=2), spec)))

        backend = CompiledBackend()
        for zero in (0.0, -0.0):
            g = graph(zero)
            ref = execute(g, iterations=1, backend="interp")
            got = execute(g, iterations=1, backend=backend)
            assert [repr(v) for v in got.outputs] == \
                [repr(v) for v in ref.outputs]

    @pytest.mark.parametrize("values,other", [
        ((0.0, 1.0), (-0.0, 1.0)), ((1, 2), (1.0, 2.0))])
    def test_vector_constants_do_not_share_a_kernel(self, values, other):
        """``VectorConst`` lanes equal under ``==`` but of another sign or
        type: one backend must run each body with its own lanes."""
        from repro.apps.sources import lcg_source

        def graph(lanes):
            b = WorkBuilder()
            b.pop()
            b.push(E.Lane(E.VectorConst(lanes), 0))
            spec = FilterSpec("lane", pop=1, push=1, work_body=b.build())
            return flatten(Program("lanes", pipeline(
                lcg_source("src", push=2), spec)))

        backend = CompiledBackend()
        for lanes in (values, other):
            g = graph(lanes)
            ref = execute(g, iterations=1, backend="interp")
            got = execute(g, iterations=1, backend=backend)
            assert [(type(v), repr(v)) for v in got.outputs] == \
                [(type(v), repr(v)) for v in ref.outputs]

    def test_memo_hit_on_the_same_body_skips_the_walk(self, monkeypatch):
        backend = CompiledBackend()
        graph = _scaler_graph(2.0)
        execute(graph, backend=backend, iterations=1)
        compiled = backend.cache.stats.compiled
        monkeypatch.setattr(structhash, "exact_consts", None)
        execute(graph, backend=backend, iterations=1)
        assert backend.cache.stats.compiled == compiled


class TestUnboundParameters:
    def test_param_in_a_work_body_raises_at_compile_time(self):
        b = WorkBuilder()
        b.push(b.pop() * E.Param("k"))
        spec = FilterSpec("scale_k", pop=1, push=1, work_body=b.build())
        graph = flatten(Program("params", pipeline(
            make_ramp_source(4), spec)))
        with pytest.raises(InterpreterError,
                           match="unbound parameter 'k'"):
            execute(graph, iterations=1, backend=CompiledBackend())


class TestBackendResolution:
    def test_strings_resolve(self):
        assert isinstance(resolve_backend("interp"), InterpreterBackend)
        assert resolve_backend("compiled").name == "compiled"

    def test_compiled_string_is_singleton(self):
        assert resolve_backend("compiled") is resolve_backend("compiled")

    def test_object_passthrough(self):
        backend = CompiledBackend()
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
        backend = CompiledBackend()
        execute(_scaler_graph(2.0, 3.0), backend=backend, iterations=1)
        assert len(backend.cache) == backend.cache.stats.compiled
