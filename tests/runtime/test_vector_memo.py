"""The vector backend's batch-kernel memo and its in-batch intrinsics.

``VectorBackend`` builds each batch kernel once per build key and keeps
it, or the refusal, for every later actor and execution with that key.
These tests pin what the key holds (every input the builder reads, no
state *values*), that a kept kernel still re-validates the runtime it is
handed, that one kernel serves actors on different cores, and that the
intrinsics numpy cannot reproduce exactly — evaluated per element through
the interpreter's own callables — keep the interpreter's outputs, counter
bags and exceptions, down to the firing that raises.
"""

import pytest

np = pytest.importorskip("numpy")

import repro.runtime.vector.backend as vector_backend
import repro.runtime.vector.kernel as vector_kernel
from repro.apps.sources import checksum_sink, ramp_source
from repro.graph.actor import FilterSpec, StateVar
from repro.graph.flatten import flatten
from repro.graph.structure import Program, pipeline
from repro.ir import FLOAT, INT, ArrayHandle, WorkBuilder, call
from repro.ir import expr as E
from repro.multicore import parallel_execute
from repro.perf.counters import PerActorCounters
from repro.runtime import execute
from repro.runtime.interpreter import ActorRuntime, Interpreter
from repro.runtime.tape import NdTape
from repro.runtime.vector import VectorBackend

from ..conftest import vector_batch


@pytest.fixture
def builds(monkeypatch):
    """Names of the specs ``build_batch_kernel`` is called for."""
    names = []
    real = vector_backend.build_batch_kernel

    def counting(runtime, spec, in_vector):
        names.append(spec.name)
        return real(runtime, spec, in_vector)

    monkeypatch.setattr(vector_backend, "build_batch_kernel", counting)
    return names


def _runtime(spec, data=(), *, state=None, width=4, has_input=True,
             has_output=True, in_ordered=False, out_ordered=False,
             sagu=False):
    inp, out = NdTape("in"), NdTape("out")
    for item in data:
        inp.push(item)
    if state is None:
        state = {var.name: ([var.init] * var.size if var.size
                            else var.init) for var in spec.state}
    return ActorRuntime(
        actor_id=0, simd_width=width,
        counters=PerActorCounters().for_actor(0), state=state,
        input=inp if has_input else None,
        output=out if has_output else None,
        in_lane_ordered=in_ordered, out_lane_ordered=out_ordered,
        has_sagu=sagu)


def _scaled_counter(scale=2.0, name="ctr"):
    """``push(pop() * scale * coef[1]); push(ph); ph = (ph + 1) % 8`` — a
    modular int state and a float array state read at a constant index."""
    b = WorkBuilder()
    ph = b.var("ph")
    coef = ArrayHandle("coef")
    b.push(b.pop() * scale * coef[1])
    b.push(ph)
    b.set(ph, (ph + 1) % 8)
    return FilterSpec(name, pop=1, push=2,
                      state=(StateVar("ph", INT, 0, 5),
                             StateVar("coef", FLOAT, 2, 0.5)),
                      work_body=b.build())


def _interp_firings(spec, data, state=None):
    """Fire the interpreter once per input item until it raises: the
    outputs before the failing firing and the exception (or None)."""
    rt = _runtime(spec, data, state=state)
    interp = Interpreter(rt)
    error = None
    try:
        for _ in data:
            interp.run_work(spec.work_body)
    except Exception as exc:  # noqa: BLE001 - compared below
        error = exc
    return rt.output.drain(), error


def _statuses(graph, result):
    return {graph.actors[a].name: s for a, s in result.vectorized.items()}


class TestMemo:
    def test_second_execute_builds_nothing(self, builds):
        b = WorkBuilder()
        b.push(b.pop() * 2.0)
        doubler = FilterSpec("doubler", pop=1, push=1, work_body=b.build())
        b = WorkBuilder()
        x = b.let("x", b.pop())
        with b.if_(x.gt(0.0)):          # a data-dependent branch refuses
            b.push(x)
        with b.orelse():
            b.push(0.0 - x)
        sink = FilterSpec("sink", pop=1, push=1, work_body=b.build())
        graph = flatten(Program("memo", pipeline(
            ramp_source("ramp", push=8), doubler, sink)))
        be = VectorBackend()
        first = execute(graph, iterations=3, backend=be)
        # The refusal (the branching sink) is kept along with the kernels.
        assert sorted(builds) == ["doubler", "ramp", "sink"]
        assert _statuses(graph, first)["sink"].startswith("fallback: ")
        second = execute(graph, iterations=3, backend=be)
        assert len(builds) == 3
        assert second.outputs == first.outputs
        assert second.vectorized == first.vectorized

    def test_each_key_component_forces_a_build(self, builds):
        be = VectorBackend()
        spec = _scaled_counter()
        base, _ = be.batch_kernel(_runtime(spec, range(4)), spec, False)
        assert base is not None and builds == ["ctr"]
        # State values and an equal but separately built body are not
        # part of the key.
        again, _ = be.batch_kernel(
            _runtime(spec, state={"ph": 3, "coef": [1.5, -2.0]}), spec,
            False)
        assert again is base
        twin = _scaled_counter()
        assert twin.work_body is not spec.work_body
        assert be.batch_kernel(_runtime(twin), twin, False)[0] is base
        assert len(builds) == 1
        variants = [
            (spec, dict(), True),                          # in_vector
            (spec, dict(width=8), False),
            (spec, dict(sagu=True), False),
            (spec, dict(in_ordered=True), False),
            (spec, dict(out_ordered=True), False),
            (spec, dict(has_input=False), False),
            (spec, dict(has_output=False), False),
            (spec, dict(state={"ph": 5.0, "coef": [0.5, 0.5]}), False),
            (spec, dict(state={"ph": 5, "coef": [0.5, 0.5, 0.5]}), False),
            (spec, dict(state={"ph": 5, "coef": [0.5, 1]}), False),
            (_scaled_counter(3.0), dict(), False),
        ]
        for n, (variant, kwargs, in_vector) in enumerate(variants, 2):
            be.batch_kernel(_runtime(variant, **kwargs), variant, in_vector)
            assert len(builds) == n, (n, kwargs)

    @pytest.mark.parametrize("scale,ref_scale", [
        (-0.0, 0.0), (E.FloatConst(2), E.FloatConst(2.0))])
    def test_constants_equal_under_eq_still_build(self, builds, scale,
                                                  ref_scale):
        # 0.0 == -0.0 and 2 == 2.0, so the two bodies compare (and hash)
        # equal, but the builder bakes each constant in as it is.
        be = VectorBackend()
        ref = _scaled_counter(ref_scale)
        other = _scaled_counter(scale)
        assert other.work_body == ref.work_body
        first, _ = be.batch_kernel(_runtime(ref), ref, False)
        kernel, _ = be.batch_kernel(_runtime(other), other, False)
        assert kernel is not first and len(builds) == 2
        data = [-1.0, 2.0, -3.0, 0.0]
        rt = _runtime(other, data)
        assert kernel.run(rt, len(data)) is True
        got = rt.output.drain()
        want, error = _interp_firings(other, data)
        assert error is None
        assert [(type(v), repr(v)) for v in got] == \
               [(type(v), repr(v)) for v in want]

    def test_state_drift_after_reuse_replays(self):
        be = VectorBackend()
        spec = _scaled_counter()
        built, _ = be.batch_kernel(_runtime(spec), spec, False)
        rt = _runtime(spec, [1.0, 2.0, 3.0])
        kernel, status = be.batch_kernel(rt, spec, False)
        assert kernel is built and status == "vector:scan"
        rt.state["ph"] = 5.5                       # int state turned float
        assert kernel.run(rt, 3) is False
        assert len(rt.input) == 3 and len(rt.output) == 0
        assert rt.state == {"ph": 5.5, "coef": [0.5, 0.5]}

    def test_one_kernel_serves_two_cores(self, builds):
        b = WorkBuilder()
        x = b.let("x", b.pop())
        b.push(call("pow", call("abs", x) + 1e-9, 4.0 / 3.0) * 0.5)
        body = b.build()
        stages = [FilterSpec(name, pop=1, push=1, work_body=body)
                  for name in ("pow_a", "pow_b")]
        graph = flatten(Program("cores", pipeline(
            ramp_source("ramp", push=8, step=0.25), *stages,
            checksum_sink("sink", pop=8))))
        order = graph.ordered_actors()
        partition = {aid: int(i >= 2) for i, aid in enumerate(order)}
        ref = execute(graph, iterations=4, backend="interp")
        got = parallel_execute(graph, iterations=4, cores=2,
                               partition=partition, backend=VectorBackend())
        assert got.outputs == ref.outputs
        assert got.batched_firings > 0
        statuses = _statuses(graph, got)
        assert statuses["pow_a"] == statuses["pow_b"] == "vector"
        # pow_b (core 1) shares the kernel built for pow_a (core 0).
        assert builds.count("pow_a") == 1 and "pow_b" not in builds


class TestInexactIntrinsics:
    def _graph(self, expr_of):
        b = WorkBuilder()
        b.push(expr_of(b.let("x", b.pop())))
        worker = FilterSpec("worker", pop=1, push=1, work_body=b.build())
        return flatten(Program("intr", pipeline(
            ramp_source("ramp", push=8, step=0.125), worker,
            checksum_sink("sink", pop=8))))

    def test_exp_tan_asin_acos_atan2_match_interp(self):
        graph = self._graph(lambda x: (
            call("exp", x * 0.25) + call("tan", x * 0.1)
            + call("asin", x * 0.01) - call("acos", x * 0.01)
            + call("atan2", x, 1.5)))
        ref = execute(graph, iterations=4, backend="interp")
        got = execute(graph, iterations=4, backend="vector")
        assert got.outputs == ref.outputs
        assert {a: dict(c.events) for a, c in
                got.steady_counters.by_actor.items()} == \
               {a: dict(c.events) for a, c in
                ref.steady_counters.by_actor.items()}
        assert _statuses(graph, got)["worker"] == "vector"

    @pytest.mark.parametrize("expr_of,data,error", [
        # A negative base under a fractional exponent: ValueError at the
        # firing whose x drops below 20 (the 12th).
        (lambda x: call("pow", x - 20.0, 0.5),
         [30.0 - k for k in range(16)], ValueError),
        # (x + 2) ** 2000 overflows once x + 2 > 1.4257 (the 10th).
        (lambda x: call("pow", x + 2.0, 2000.0),
         [-1.0 + 0.05 * k for k in range(16)], OverflowError),
    ])
    def test_domain_errors_raise_at_the_interp_firing(self, expr_of, data,
                                                       error):
        b = WorkBuilder()
        b.push(expr_of(b.let("x", b.pop())))
        spec = FilterSpec("p", pop=1, push=1, work_body=b.build())
        want, want_error = _interp_firings(spec, data)
        assert type(want_error) is error and 0 < len(want) < len(data)

        rt = _runtime(spec, data)
        batch, status = vector_batch(rt, spec)
        assert status == "vector"
        with pytest.raises(error) as exc:
            batch(len(data))
        assert str(exc.value) == str(want_error)
        assert rt.output.drain() == want

        # Through the executor both backends raise the same error.
        graph = self._graph(expr_of)
        raised = {}
        for backend in ("interp", "vector"):
            with pytest.raises(Exception) as exc:
                execute(graph, iterations=4, backend=backend)
            raised[backend] = (type(exc.value), str(exc.value))
        assert raised["vector"] == raised["interp"]

    def test_inexact_fmod_maps_the_interpreters_mod(self, monkeypatch):
        monkeypatch.setattr(vector_kernel, "EXACT_INTRINSICS",
                            vector_kernel.EXACT_INTRINSICS - {"fmod"})
        b = WorkBuilder()
        x = b.let("x", b.pop())
        b.push(x % 1.5)
        b.push(x % (x * 0.25 + 3.0))
        spec = FilterSpec("m", pop=1, push=2, work_body=b.build())
        data = [0.375 * k - 4.0 for k in range(23)]
        rt = _runtime(spec, data)
        kernel = vector_kernel.build_batch_kernel(rt, spec, False)
        mods = [ins for ins in kernel.instrs if ins[0] == "mod"]
        assert len(mods) == 2 and not any(ins[-1] for ins in mods)
        assert kernel.run(rt, len(data)) is True
        want, error = _interp_firings(spec, data)
        assert error is None
        got = rt.output.drain()
        assert [repr(v) for v in got] == [repr(v) for v in want]
