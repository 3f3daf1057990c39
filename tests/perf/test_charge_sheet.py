"""The charge sheet (``repro.perf.events``) pinned to the interpreter.

The closure compiler, the batch-kernel builder, the movers and the static
estimator charge through the sheet; the interpreter keeps its own rules as
the reference.  Each case runs a one-statement body on the interpreter and
asserts that its counter bag is exactly what the sheet says.
"""

import dataclasses

import pytest

from repro.ir import expr as E
from repro.ir import stmt as S
from repro.perf import events as ev
from repro.perf.counters import PerfCounters
from repro.runtime.compiled.compiler import (Frame, Specialization,
                                             compile_kernel)
from repro.runtime.errors import InterpreterError
from repro.runtime.interpreter import ActorRuntime, Interpreter
from repro.runtime.tape import Tape
from repro.simd.cost_model import estimate_body_events, gather_strategy_costs
from repro.simd.machine import get_target

STRATEGIES = ("scalar", "permute", "sagu")
STRIDES = (1, 2, 3, 4, 8)
WIDTHS = (4, 8)


def _bag(body, sw=4, **flags):
    """The interpreter's events for one run of ``body`` (no firing
    overhead), over an input tape long enough for any gather here."""
    inp = Tape("in")
    for i in range(sw * max(STRIDES) + 1):
        inp.push(float(i))
    rt = ActorRuntime(0, sw, PerfCounters(), {}, inp, Tape("out"), **flags)
    Interpreter(rt).run_init(body)
    return dict(rt.counters.events)


@pytest.mark.parametrize("sw", WIDTHS)
@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("strategy", STRATEGIES)
class TestStridedAccess:
    def test_gather_pop(self, strategy, stride, sw):
        body = (S.ExprStmt(E.GatherPop(stride=stride, strategy=strategy)),)
        assert _bag(body, sw) == dict(ev.gather_events(strategy, stride, sw))

    def test_gather_peek(self, strategy, stride, sw):
        body = (S.ExprStmt(E.GatherPeek(E.IntConst(1), stride=stride,
                                        strategy=strategy)),)
        assert _bag(body, sw) == dict(ev.gather_events(strategy, stride, sw))

    def test_scatter_push(self, strategy, stride, sw):
        value = E.VectorConst(tuple(float(k) for k in range(sw)))
        body = (S.ScatterPush(value, stride=stride, strategy=strategy),)
        assert _bag(body, sw) == dict(ev.scatter_events(strategy, stride, sw))


@pytest.mark.parametrize("width", [2, 4, 8])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_compiled_scatter_charges_by_pushed_width(strategy, width):
    """The closure compiler charges a scatter for the kernel's SIMD width
    up front; a vector of another width is recharged as the interpreter
    charges it."""
    value = E.VectorConst(tuple(float(k) for k in range(width)))
    body = (S.ScatterPush(value, stride=2, strategy=strategy),)
    spec = Specialization(is_work=False, simd_width=4, has_sagu=False,
                          in_lane_ordered=False, out_lane_ordered=False,
                          in_vector=False, state_shapes=())
    rt = ActorRuntime(0, 4, PerfCounters(), {}, Tape("in"), Tape("out"))
    compile_kernel(body, spec).run(Frame(rt))
    compiled = {e: n for e, n in rt.counters.events.items() if n}
    assert compiled == _bag(body) == dict(ev.scatter_events(strategy, 2,
                                                            width))


def test_gather_prices_keep_float_order():
    """Fitted prices are arbitrary floats: the scalar row must stay
    ``sw * (p(s_load) + p(pack))``, not ``sw*p(s_load) + sw*p(pack)``."""
    base = get_target("core-i7-sse4").with_simd_width(3)
    machine = dataclasses.replace(base, prices={**base.prices,
                                                ev.SCALAR_LOAD: 0.1,
                                                ev.PACK: 0.7})
    cost = gather_strategy_costs(2, machine, neighbour_is_scalar=False)
    assert 3 * 0.1 + 3 * 0.7 != 3 * (0.1 + 0.7)
    assert cost["scalar"].vector_side == 3 * (0.1 + 0.7)


@pytest.mark.parametrize("op", sorted(E.BINARY_OPS))
class TestBinaryOps:
    def test_scalar_operands(self, op):
        body = (S.ExprStmt(E.BinaryOp(op, E.IntConst(6), E.IntConst(3))),)
        assert _bag(body) == {ev.binary_op_event(op, vector=False): 1}

    @pytest.mark.parametrize("sides", ["vv", "vs", "sv"])
    def test_vector_operands(self, op, sides):
        vec = E.VectorConst((6.0, 5.0, 4.0, 3.0))
        left = vec if sides[0] == "v" else E.IntConst(6)
        right = vec if sides[1] == "v" else E.IntConst(3)
        body = (S.ExprStmt(E.BinaryOp(op, left, right)),)
        assert _bag(body) == {ev.binary_op_event(op, vector=True): 1}


@pytest.mark.parametrize("has_sagu", [False, True])
class TestLaneOrderedAccess:
    def test_pop(self, has_sagu):
        body = (S.ExprStmt(E.Pop()),)
        bag = _bag(body, in_lane_ordered=True, has_sagu=has_sagu)
        assert bag == {ev.SCALAR_LOAD: 1, ev.lane_event(has_sagu): 1}

    def test_push(self, has_sagu):
        body = (S.Push(E.FloatConst(1.0)),)
        bag = _bag(body, out_lane_ordered=True, has_sagu=has_sagu)
        assert bag == {ev.SCALAR_STORE: 1, ev.lane_event(has_sagu): 1}


class TestUnknownStrategy:
    """Every engine rejects a strategy the sheet does not know, each with
    its own error type; none prices it as another strategy."""

    GATHER = (S.ExprStmt(E.GatherPop(stride=2, strategy="bogus")),)
    SCATTER = (S.ScatterPush(E.VectorConst((1.0, 2.0, 3.0, 4.0)), stride=2,
                             strategy="bogus"),)

    def test_sheet(self):
        with pytest.raises(ev.UnknownStrategy, match="unknown gather"):
            ev.gather_events("bogus", 2, 4)
        with pytest.raises(ev.UnknownStrategy, match="unknown scatter"):
            ev.scatter_events("bogus", 2, 4)

    @pytest.mark.parametrize("body", [GATHER, SCATTER])
    def test_interpreter(self, body):
        with pytest.raises(InterpreterError, match="unknown .* strategy"):
            _bag(body)

    @pytest.mark.parametrize("body", [GATHER, SCATTER])
    def test_estimator(self, body):
        with pytest.raises(ev.UnknownStrategy):
            estimate_body_events(body, 4)

    @pytest.mark.parametrize("body", [GATHER, SCATTER])
    def test_closure_compiler(self, body):
        spec = Specialization(is_work=False, simd_width=4, has_sagu=False,
                              in_lane_ordered=False, out_lane_ordered=False,
                              in_vector=False, state_shapes=())
        with pytest.raises(InterpreterError, match="unknown .* strategy"):
            compile_kernel(body, spec)

    @pytest.mark.parametrize("body", [GATHER, SCATTER])
    def test_batch_kernel_builder(self, body):
        pytest.importorskip("numpy")
        from repro.graph.actor import FilterSpec
        from repro.runtime.tape import NdTape
        from repro.runtime.vector.kernel import (Unvectorizable,
                                                 build_batch_kernel)
        rt = ActorRuntime(0, 4, PerfCounters(), {}, NdTape("in"),
                          NdTape("out"))
        spec = FilterSpec("bogus", pop=2, push=4, peek=8, work_body=body)
        with pytest.raises(Unvectorizable, match="unknown .* strategy"):
            build_batch_kernel(rt, spec, False)
