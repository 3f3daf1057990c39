"""The vector backend's fallback contract.

A batch kernel is only built when the whole work body is provably
batchable; everything else — state updates outside the modular-affine
class ``s ← (a·s + c) % m``, data-dependent control flow or array
indexing, inexact intrinsics — must route to the
per-firing compiled-closure path, be *recorded* as a fallback with its
reason, and still be bit-identical to the interpreter.  These tests pin
the routing decisions (per actor, through ``ExecutionResult.vectorized``
and ``build_batch_kernel`` directly) and the mixed-mode parity.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.apps.des import make_int_source
from repro.apps.registry import get_benchmark
from repro.apps.sources import checksum_sink, lcg_source, ramp_source
from repro.graph.actor import FilterSpec, StateVar
from repro.graph.flatten import flatten
from repro.graph.structure import Program, pipeline
from repro.ir import FLOAT, INT, WorkBuilder
from repro.perf.counters import PerActorCounters
from repro.runtime import execute
from repro.runtime.errors import StreamRuntimeError
from repro.runtime.interpreter import ActorRuntime
from repro.runtime.tape import NdTape, Tape
from repro.runtime.vector.kernel import Unvectorizable, build_batch_kernel
from repro.simd.machine import CORE_I7


def _runtime(spec, data=(), width=4, tape_cls=Tape):
    from repro.runtime.executor import state_initial_value
    counters = PerActorCounters()
    inp, out = tape_cls("in"), tape_cls("out")
    for item in data:
        inp.push(item)
    return ActorRuntime(
        actor_id=0, simd_width=width, counters=counters.for_actor(0),
        state={var.name: state_initial_value(var, width)
               for var in spec.state},
        input=inp if spec.pop or spec.peek else None,
        output=out, in_lane_ordered=False, out_lane_ordered=False,
        has_sagu=False)


def _build(spec, data=()):
    return build_batch_kernel(_runtime(spec, data), spec, False)


class TestBuildDecisions:
    def test_stateless_elementwise_vectorizes(self):
        b = WorkBuilder()
        b.push(b.pop() * 2.0 + 1.0)
        spec = FilterSpec("f", pop=1, push=1, work_body=b.build())
        kernel = _build(spec)
        assert kernel.a_in == 1 and kernel.a_out == 1

    def test_affine_counter_state_vectorizes(self):
        kernel = _build(ramp_source("ramp", push=4))
        assert kernel.a_in == 0 and kernel.a_out == 4

    def test_peeking_window_vectorizes(self):
        b = WorkBuilder()
        b.push(b.peek(0) + b.peek(3))
        b.stmt(b.pop())
        spec = FilterSpec("win", pop=1, push=1, peek=4, work_body=b.build())
        kernel = _build(spec)
        assert kernel.need == 4  # window of 4 beyond each firing's base

    def test_lcg_sources_build_scan_kernels(self):
        # s ← (a·s + c) % 2**31 is a modular recurrence: both LCG sources
        # batch, as a float and as an int64 output column.
        for spec, kind in ((lcg_source("src", push=4), "float"),
                           (make_int_source("isrc", pairs=2), "int")):
            rt = _runtime(spec, tape_cls=NdTape)
            kernel = build_batch_kernel(rt, spec, False)
            assert kernel.a_in == 0 and kernel.a_out == spec.push == 4
            assert all(av.m == 2 ** 31 for av in kernel.aff_vars)
            assert kernel.run(rt, 3) is True
            assert len(rt.output) == 12
            assert rt.output.dtype_kind == kind  # committed as ndarrays

    @pytest.mark.parametrize("update,reason", [
        (lambda b, s: (s * -3 + 7) % 64,
         "stateful: negative coefficient under a modulus"),
        (lambda b, s: (s * 3 - 1) % 64,
         "stateful: negative coefficient under a modulus"),
        (lambda b, s: (s * 5 + 1) % (2 ** 31 + 1),
         "stateful: modulus exceeds 2**31"),
        (lambda b, s: s * 3 + 1,
         "stateful: multiplicative state update without a modulus"),
        (lambda b, s: (s * s) % 64,
         "stateful: state multiplied by state"),
        (lambda b, s: (s * 5 + 1) % 64 + 1,
         "stateful: modular state update leaves [0, m)"),
    ])
    def test_int_recurrence_refusals_are_named(self, update, reason):
        b = WorkBuilder()
        s = b.var("s")
        b.set(s, update(b, s))
        b.push(s)
        spec = FilterSpec("r", pop=0, push=1, data_type=INT,
                          state=(StateVar("s", INT, 0, 1),),
                          work_body=b.build())
        with pytest.raises(Unvectorizable) as exc:
            _build(spec)
        assert str(exc.value) == reason

    def test_float_iir_falls_back(self):
        b = WorkBuilder()
        acc = b.var("acc")
        b.set(acc, acc * 0.9 + b.pop())
        b.push(acc)
        spec = FilterSpec("iir", pop=1, push=1,
                          state=(StateVar("acc", FLOAT, 0, 0.0),),
                          work_body=b.build())
        with pytest.raises(Unvectorizable) as exc:
            _build(spec)
        assert str(exc.value) == \
            "stateful: float recurrence (state scaled by a non-integer)"

    def test_stateful_accumulator_falls_back(self):
        # acc folds popped data into state: the update is data-dependent,
        # not a map of build-time constants.
        with pytest.raises(Unvectorizable) as exc:
            _build(checksum_sink("sink", pop=4))
        assert str(exc.value) == "stateful: state folds stream data"

    def test_modular_counter_vectorizes(self):
        # (ph + 1) % 8 is the a = 1 case of the recurrence.
        b = WorkBuilder()
        ph = b.var("ph")
        b.push(b.pop() + ph)
        b.set(ph, (ph + 1) % 8)
        spec = FilterSpec("ctr", pop=1, push=1, data_type=INT,
                          state=(StateVar("ph", INT, 0, 5),),
                          work_body=b.build())
        rt = _runtime(spec, data=range(20))
        kernel = build_batch_kernel(rt, spec, False)
        assert kernel.run(rt, 20) is True
        assert rt.output.drain() == [i + (5 + i) % 8 for i in range(20)]
        assert rt.state["ph"] == (5 + 20) % 8

    def test_plain_counter_read_through_modulus_vectorizes(self):
        # t stays an affine induction; only its *read* folds `% 4`.
        b = WorkBuilder()
        t = b.var("t")
        b.push(t % 4)
        b.set(t, t + 3)
        spec = FilterSpec("rd", pop=0, push=1, data_type=INT,
                          state=(StateVar("t", INT, 0, 2),),
                          work_body=b.build())
        rt = _runtime(spec)
        kernel = build_batch_kernel(rt, spec, False)
        assert kernel.run(rt, 9) is True
        assert rt.output.drain() == [(2 + 3 * k) % 4 for k in range(9)]
        assert rt.state["t"] == 2 + 27
        # A negative counter leaves the non-negative int64 lane: replay.
        rt.state["t"] = -5
        assert kernel.run(rt, 3) is False and rt.state["t"] == -5

    def test_data_dependent_branch_falls_back(self):
        b = WorkBuilder()
        x = b.let("x", b.pop())
        with b.if_(x.gt(0.0)):
            b.push(x)
        with b.orelse():
            b.push(0.0 - x)
        spec = FilterSpec("absif", pop=1, push=1, work_body=b.build())
        with pytest.raises(Unvectorizable) as exc:
            _build(spec)
        assert "branch" in str(exc.value)

    def test_data_dependent_array_index_falls_back(self):
        from repro.ir import ArrayHandle
        b = WorkBuilder()
        delay = ArrayHandle("delay")
        ph = b.var("ph")
        b.push(delay[ph])
        b.set(delay[ph], b.pop())
        b.set(ph, (ph + 1) % 4)
        spec = FilterSpec(
            "delay", pop=1, push=1,
            state=(StateVar("delay", FLOAT, 4, 0.0),
                   StateVar("ph", INT, 0, 0)),
            work_body=b.build())
        with pytest.raises(Unvectorizable):
            _build(spec)

    def test_pow_falls_back(self):
        from repro.ir import call
        b = WorkBuilder()
        b.push(call("pow", b.pop(), 2.0))
        spec = FilterSpec("p", pop=1, push=1, work_body=b.build())
        with pytest.raises(Unvectorizable):
            _build(spec)


class TestRuntimeRouting:
    """End-to-end: the executor records which path each actor took."""

    def _mixed_graph(self):
        # ramp (vector, affine state) -> doubler (vector, stateless) ->
        # checksum (fallback: its state folds stream data).
        b = WorkBuilder()
        with b.loop("i", 0, 8):
            b.push(b.pop() * 2.0)
        doubler = FilterSpec("doubler", pop=8, push=8, work_body=b.build())
        return flatten(Program("mixed", pipeline(
            ramp_source("ramp", push=8), doubler,
            checksum_sink("sink", pop=8))))

    def test_mixed_graph_reports_both_modes(self):
        graph = self._mixed_graph()
        result = execute(graph, iterations=3, backend="vector")
        statuses = {graph.actors[a].name: v
                    for a, v in result.vectorized.items()}
        assert statuses["ramp"] == "vector"
        assert statuses["doubler"] == "vector"
        assert statuses["sink"].startswith("fallback: ")

    def test_lcg_source_reports_scan_status(self):
        # DCT's source was the app's one fallback; it now batches, and its
        # status says the state is scanned.
        graph = flatten(get_benchmark("DCT"))
        result = execute(graph, iterations=2, backend="vector")
        statuses = {graph.actors[a].name: v
                    for a, v in result.vectorized.items()}
        assert statuses["dct_src"] == "vector:scan"
        assert all(v.startswith("vector") for v in statuses.values())

    def test_mixed_graph_passes_parity(self):
        graph = self._mixed_graph()
        ref = execute(graph, iterations=3, backend="interp")
        got = execute(graph, iterations=3, backend="vector")
        assert got.outputs == ref.outputs
        assert {a: dict(c.events) for a, c in
                got.steady_counters.by_actor.items()} == \
               {a: dict(c.events) for a, c in
                ref.steady_counters.by_actor.items()}

    def test_running_example_mixes_modes(self):
        graph = flatten(get_benchmark("RunningExample"))
        result = execute(graph, machine=CORE_I7, iterations=2,
                         backend="vector")
        modes = set()
        for status in result.vectorized.values():
            modes.add("vector" if status.startswith("vector")
                      else "fallback")
        assert modes == {"vector", "fallback"}

    def test_fallback_reasons_are_recorded(self):
        graph = flatten(get_benchmark("RunningExample"))
        result = execute(graph, iterations=1, backend="vector")
        reasons = [v for v in result.vectorized.values()
                   if v.startswith("fallback: ")]
        assert reasons
        assert all(len(r) > len("fallback: ") for r in reasons)


class TestNumpyGate:
    def test_resolve_backend_vector_without_numpy(self, monkeypatch):
        import repro.runtime.backends as backends
        import repro.runtime.vector.np_compat as np_compat
        monkeypatch.setattr(np_compat, "HAVE_NUMPY", False)
        monkeypatch.setattr(backends, "_VECTOR_SINGLETON", None)
        with pytest.raises(StreamRuntimeError, match="numpy"):
            backends.resolve_backend("vector")

    def test_vector_backend_ctor_without_numpy(self, monkeypatch):
        import repro.runtime.vector.backend as vb
        monkeypatch.setattr(vb, "HAVE_NUMPY", False)
        with pytest.raises(StreamRuntimeError, match="numpy"):
            vb.VectorBackend()

    def test_unknown_backend_message_names_vector(self):
        from repro.runtime.backends import resolve_backend
        with pytest.raises(StreamRuntimeError, match="vector"):
            resolve_backend("nope")


class TestBatchKernelRuntimeGuards:
    """A built kernel re-validates per batch and returns False (nothing
    committed) instead of committing a wrong batch."""

    def _spec(self):
        b = WorkBuilder()
        b.push(b.pop() * 2.0)
        return FilterSpec("dbl", pop=1, push=1, work_body=b.build())

    def test_insufficient_input_refuses(self):
        spec = self._spec()
        rt = _runtime(spec, data=[1.0, 2.0])
        kernel = build_batch_kernel(rt, spec, False)
        assert kernel.run(rt, 8) is False
        assert len(rt.input) == 2  # nothing consumed
        assert len(rt.output) == 0

    def test_type_drift_refuses(self):
        spec = self._spec()
        rt = _runtime(spec, data=[1.0, "oops", 3.0])
        kernel = build_batch_kernel(rt, spec, False)
        assert kernel.run(rt, 3) is False
        assert len(rt.output) == 0

    def test_clean_batch_commits(self):
        spec = self._spec()
        rt = _runtime(spec, data=[1.0, 2.0, 3.0])
        kernel = build_batch_kernel(rt, spec, False)
        assert kernel.run(rt, 3) is True
        assert rt.output.drain() == [2.0, 4.0, 6.0]
        assert len(rt.input) == 0
