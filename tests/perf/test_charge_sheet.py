"""The charge sheet (``repro.perf.events``) pinned to the interpreter.

The closure compiler, the batch-kernel builder, the movers and the static
estimator charge through the sheet; the interpreter keeps its own rules as
the reference.  Each case runs a one-statement body on the interpreter and
asserts that its counter bag is exactly what the sheet says.  The static
estimator is pinned the same way on straight-line bodies whose lane kinds
are known from the IR alone.
"""

import dataclasses

import pytest

from repro.graph.actor import StateVar
from repro.ir import FLOAT
from repro.ir import expr as E
from repro.ir import lvalue as L
from repro.ir import stmt as S
from repro.ir.types import Vector
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


def _bag(body, sw=4, state=None, **flags):
    """The interpreter's events for one run of ``body`` (no firing
    overhead), over an input tape long enough for any gather here."""
    inp = Tape("in")
    for i in range(sw * max(STRIDES) + 1):
        inp.push(float(i))
    rt = ActorRuntime(0, sw, PerfCounters(), dict(state or {}), inp,
                      Tape("out"), **flags)
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
                          state_names=frozenset(),
                          vectors=frozenset())
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
                              state_names=frozenset(),
                              vectors=frozenset())
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


VEC = E.VectorConst((1.0, 2.0, 3.0, 4.0))
V4 = Vector(FLOAT, 4)
X = E.Var("x")


def _vector_local(*stmts):
    return (S.DeclVar("x", V4, VEC),) + stmts


#: Straight-line bodies whose lane kinds the IR states: the estimator must
#: charge exactly what the interpreter does.
ESTIMATOR_CASES = {
    "neg-vector": (S.ExprStmt(-VEC),),
    "neg-scalar": (S.ExprStmt(-E.FloatConst(2.0)),),
    "sqrt-vector": (S.ExprStmt(E.call("sqrt", VEC)),),
    "sqrt-scalar": (S.ExprStmt(E.call("sqrt", E.FloatConst(2.0))),),
    "internal-push-scalar": (S.InternalPush(0, E.FloatConst(1.0)),),
    "internal-push-vector": (S.InternalPush(0, VEC),),
    "internal-pop-scalar": (S.InternalPush(0, E.FloatConst(1.0)),
                            S.Push(E.InternalPop(0))),
    "internal-pop-vector": (S.InternalPush(0, VEC),
                            S.VPush(E.InternalPop(0))),
    "mul-vector-local": _vector_local(S.ExprStmt(X * X)),
    "select-scalar": (S.ExprStmt(E.Select(
        E.BoolConst(True), E.FloatConst(1.0), E.FloatConst(2.0))),),
    "select-vector": (S.ExprStmt(E.Select(
        E.VectorConst((1, 0, 1, 0)), VEC, E.FloatConst(2.0))),),
    "lane-plus-scalar": _vector_local(S.ExprStmt(X.lane(0) + 1.0)),
    "lane-assign": _vector_local(S.Assign(L.LaneLV("x", 1), E.FloatConst(0.0))),
    "broadcast-scalar": (S.ExprStmt(E.Broadcast(E.FloatConst(1.0), 4)),),
    "broadcast-vector": (S.ExprStmt(E.Broadcast(VEC, 4)),),
    "array-vec": (S.DeclArray("a", FLOAT, 8),
                  S.ExprStmt(E.ArrayVec("a", E.IntConst(4)))),
    "array-read-scalar": (S.DeclArray("a", FLOAT, 2),
                          S.ExprStmt(E.ArrayRead("a", E.IntConst(1)))),
    "array-vector-elements": (
        S.DeclArray("a", V4, 2),
        S.Assign(L.ArrayLV("a", E.IntConst(0)),
                 E.ArrayRead("a", E.IntConst(1)) * 2.0),
        S.Assign(L.ArrayLV("a", E.IntConst(1)), E.FloatConst(0.0))),
    "vector-state": (S.Assign(L.VarLV("s"), E.Var("s") + 1.0),),
    "pop-scalar": (S.ExprStmt(E.Pop() * 2.0),),
    "cost-annotation": (S.CostAnnotation(ev.SCALAR_ALU, 3),),
}

#: Interpreter state of the ``vector-state`` case and its declaration.
STATE = (StateVar("s", V4, 0, 0.0),)
STATE_VALUES = {"s": [0.0] * 4}


@pytest.mark.parametrize("case", sorted(ESTIMATOR_CASES))
def test_estimator_matches_interpreter(case):
    body = ESTIMATOR_CASES[case]
    static = estimate_body_events(body, 4, STATE)
    assert {e: n for e, n in static.events.items() if n} == _bag(
        body, state=STATE_VALUES)

