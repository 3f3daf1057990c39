"""Interpreter for actor work functions.

Executes IR bodies (scalar or SIMDized) against runtime tapes while
emitting performance events.  The interpreter is the reproduction's stand-in
for running compiled binaries on the Core i7: functional results validate
the transformations, the event stream feeds the cycle cost model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..ir import expr as E
from ..ir import lvalue as L
from ..ir import stmt as S
from ..ir.types import Vector
from ..perf import events as ev
from ..perf.counters import PerfCounters
from .env import Env
from .errors import InterpreterError
from .tape import Tape
from .values import (
    apply_binary,
    apply_math,
    apply_unary,
    copy_value,
    is_vector_value,
    splat,
)

_MUL_OPS = frozenset({"*"})
_DIV_OPS = frozenset({"/", "%"})


@dataclass
class ActorRuntime:
    """Mutable per-actor execution context."""

    actor_id: int
    simd_width: int
    counters: PerfCounters
    state: Dict[str, Any] = field(default_factory=dict)
    input: Optional[Tape] = None
    output: Optional[Tape] = None
    #: lane-ordered flags: scalar accesses on such tapes pay address
    #: translation (Figure 8) or a SAGU increment (Figure 9).
    in_lane_ordered: bool = False
    out_lane_ordered: bool = False
    #: internal FIFO buffers of a vertically fused coarse actor.
    internal: Dict[int, List[Any]] = field(default_factory=dict)
    #: cursor per internal buffer (index of next item to pop).
    internal_head: Dict[int, int] = field(default_factory=dict)
    has_sagu: bool = False


class Interpreter:
    """Executes one actor's bodies within an :class:`ActorRuntime`."""

    def __init__(self, runtime: ActorRuntime) -> None:
        self.rt = runtime
        self.env = Env(runtime.state)

    # -- public entry points ----------------------------------------------------
    def run_init(self, body: S.Body) -> None:
        self.env.reset_locals()
        self._run_body(body)

    def run_work(self, body: S.Body) -> None:
        self.rt.counters.add(ev.FIRE)
        self.env.reset_locals()
        self._run_body(body)

    # -- helpers -----------------------------------------------------------------
    def _charge(self, event: str, count: int = 1) -> None:
        self.rt.counters.add(event, count)

    def _charge_scalar_in(self) -> None:
        self._charge(ev.SCALAR_LOAD)
        if self.rt.in_lane_ordered:
            self._charge(ev.SAGU if self.rt.has_sagu else ev.ADDR)

    def _charge_scalar_out(self) -> None:
        self._charge(ev.SCALAR_STORE)
        if self.rt.out_lane_ordered:
            self._charge(ev.SAGU if self.rt.has_sagu else ev.ADDR)

    def _input(self) -> Tape:
        if self.rt.input is None:
            raise InterpreterError("actor has no input tape")
        return self.rt.input

    def _output(self) -> Tape:
        if self.rt.output is None:
            raise InterpreterError("actor has no output tape")
        return self.rt.output

    # -- statements ----------------------------------------------------------------
    def _run_body(self, body: S.Body) -> None:
        for stmt in body:
            self._run_stmt(stmt)

    def _run_stmt(self, stmt: S.Stmt) -> None:
        if isinstance(stmt, S.Assign):
            self._assign(stmt.lhs, self._eval(stmt.rhs))
        elif isinstance(stmt, S.DeclVar):
            value = (0.0 if stmt.init is None
                     else copy_value(self._eval(stmt.init)))
            if isinstance(stmt.type, Vector) and not is_vector_value(value):
                # A vector local holds its initialiser's splat (uncharged,
                # as a vector array's scalar initialiser is).
                value = splat(value, stmt.type.width)
            self.env.declare(stmt.name, value)
        elif isinstance(stmt, S.DeclArray):
            self.env.declare(stmt.name, self._make_array(stmt))
        elif isinstance(stmt, S.Push):
            self._charge_scalar_out()
            self._output().push(self._eval(stmt.value))
        elif isinstance(stmt, S.RPush):
            self._charge_scalar_out()
            offset = self._eval(stmt.offset)
            self._output().rpush(self._eval(stmt.value), int(offset))
        elif isinstance(stmt, S.VPush):
            self._charge(ev.VECTOR_STORE)
            value = self._eval(stmt.value)
            if not is_vector_value(value):
                raise InterpreterError("vpush of a scalar value")
            self._output().push(list(value))
        elif isinstance(stmt, S.ScatterPush):
            self._scatter_push(stmt)
        elif isinstance(stmt, S.InternalPush):
            value = self._eval(stmt.value)
            self._charge(ev.VECTOR_STORE if is_vector_value(value)
                         else ev.SCALAR_STORE)
            self.rt.internal.setdefault(stmt.buf, []).append(copy_value(value))
        elif isinstance(stmt, S.CostAnnotation):
            self._charge(stmt.event, stmt.count)
        elif isinstance(stmt, S.AdvanceReader):
            self._charge(ev.SCALAR_ALU)
            self._input().advance_reader(stmt.count)
        elif isinstance(stmt, S.AdvanceWriter):
            self._charge(ev.SCALAR_ALU)
            self._output().advance_writer(stmt.count)
        elif isinstance(stmt, S.ExprStmt):
            self._eval(stmt.expr)
        elif isinstance(stmt, S.For):
            start = int(self._eval(stmt.start))
            end = int(self._eval(stmt.end))
            self.env.declare(stmt.var, start)
            for index in range(start, end):
                self._charge(ev.LOOP)
                self.env.set(stmt.var, index)
                self._run_body(stmt.body)
        elif isinstance(stmt, S.If):
            if self._truthy(self._eval(stmt.cond)):
                self._run_body(stmt.then_body)
            else:
                self._run_body(stmt.else_body)
        else:
            raise InterpreterError(f"unknown statement {stmt!r}")

    def _make_array(self, stmt: S.DeclArray) -> List[Any]:
        width = stmt.elem_type.width if isinstance(stmt.elem_type, Vector) else 0
        if stmt.init is not None:
            if width:
                # Vector-element arrays may be initialised per-lane (tuples)
                # or by splatting a scalar initialiser.
                return [list(item) if isinstance(item, tuple) else splat(item, width)
                        for item in stmt.init]
            return [item for item in stmt.init]
        if width:
            return [splat(0.0, width) for _ in range(stmt.size)]
        return [0.0] * stmt.size

    def _scatter_push(self, stmt: S.ScatterPush) -> None:
        value = self._eval(stmt.value)
        if not is_vector_value(value):
            raise InterpreterError("scatter_push of a scalar value")
        out = self._output()
        sw = len(value)
        if stmt.strategy == "scalar":
            self._charge(ev.SCALAR_STORE, sw)
            self._charge(ev.UNPACK, sw)
        elif stmt.strategy == "permute":
            self._charge(ev.VECTOR_STORE_U)
            if stmt.stride > 1:
                self._charge(ev.PERMUTE, int(math.log2(stmt.stride)))
        elif stmt.strategy == "sagu":
            self._charge(ev.VECTOR_STORE)
        else:
            raise InterpreterError(f"unknown scatter strategy {stmt.strategy!r}")
        for lane in range(1, sw):
            out.rpush(value[lane], lane * stmt.stride)
        out.push(value[0])

    # -- lvalues ------------------------------------------------------------------
    def _assign(self, lhs: L.LValue, value: Any) -> None:
        if isinstance(lhs, L.VarLV):
            self.env.set(lhs.name, copy_value(value))
        elif isinstance(lhs, L.ArrayLV):
            index = int(self._eval(lhs.index))
            array = self.env.get(lhs.name)
            self._charge(ev.VECTOR_STORE if is_vector_value(value)
                         else ev.SCALAR_STORE)
            array[index] = copy_value(value)
        elif isinstance(lhs, L.LaneLV):
            vec = self.env.get(lhs.name)
            if not is_vector_value(vec):
                raise InterpreterError(f"{lhs.name} is not a vector")
            self._charge(ev.PACK)
            vec[lhs.lane] = value
        elif isinstance(lhs, L.ArrayLaneLV):
            index = int(self._eval(lhs.index))
            vec = self.env.get(lhs.name)[index]
            self._charge(ev.PACK)
            vec[lhs.lane] = value
        else:
            raise InterpreterError(f"unknown lvalue {lhs!r}")

    # -- expressions ----------------------------------------------------------------
    def _eval(self, e: E.Expr) -> Any:
        if isinstance(e, (E.IntConst, E.FloatConst, E.BoolConst)):
            return e.value
        if isinstance(e, E.VectorConst):
            return list(e.values)
        if isinstance(e, E.Var):
            return self.env.get(e.name)
        if isinstance(e, E.ArrayRead):
            index = int(self._eval(e.index))
            value = self.env.get(e.name)[index]
            self._charge(ev.VECTOR_LOAD if is_vector_value(value)
                         else ev.SCALAR_LOAD)
            return value
        if isinstance(e, E.Lane):
            base = self._eval(e.base)
            if not is_vector_value(base):
                raise InterpreterError("lane access on scalar value")
            self._charge(ev.UNPACK)
            return base[e.index]
        if isinstance(e, E.BinaryOp):
            return self._binary(e)
        if isinstance(e, E.UnaryOp):
            operand = self._eval(e.operand)
            if is_vector_value(operand):
                self._charge(ev.VECTOR_ALU)
                return [apply_unary(e.op, x) for x in operand]
            self._charge(ev.SCALAR_ALU)
            return apply_unary(e.op, operand)
        if isinstance(e, E.Call):
            return self._call(e)
        if isinstance(e, E.Select):
            return self._select(e)
        if isinstance(e, E.Pop):
            self._charge_scalar_in()
            return self._input().pop()
        if isinstance(e, E.Peek):
            self._charge_scalar_in()
            return self._input().peek(int(self._eval(e.offset)))
        if isinstance(e, E.VPop):
            self._charge(ev.VECTOR_LOAD)
            value = self._input().pop()
            if not is_vector_value(value):
                raise InterpreterError("vpop from a scalar tape")
            return value
        if isinstance(e, E.VPeek):
            self._charge(ev.VECTOR_LOAD)
            value = self._input().peek(int(self._eval(e.offset)))
            if not is_vector_value(value):
                raise InterpreterError("vpeek from a scalar tape")
            return value
        if isinstance(e, E.ArrayVec):
            start = int(self._eval(e.index))
            array = self.env.get(e.name)
            sw = self.rt.simd_width
            if start + sw > len(array):
                raise InterpreterError(
                    f"vector load past end of array {e.name!r}")
            self._charge(ev.VECTOR_LOAD_U)
            return list(array[start:start + sw])
        if isinstance(e, E.Broadcast):
            value = self._eval(e.value)
            if is_vector_value(value):
                return value
            self._charge(ev.SPLAT)
            return splat(value, e.width)
        if isinstance(e, E.GatherPop):
            return self._gather_pop(e)
        if isinstance(e, E.GatherPeek):
            return self._gather_peek(e)
        if isinstance(e, E.InternalPop):
            return self._internal_pop(e.buf)
        if isinstance(e, E.InternalPeek):
            offset = int(self._eval(e.offset))
            buf = self.rt.internal.get(e.buf, [])
            head = self.rt.internal_head.get(e.buf, 0)
            if head + offset >= len(buf):
                raise InterpreterError(f"internal buffer {e.buf} underflow")
            value = buf[head + offset]
            self._charge(ev.VECTOR_LOAD if is_vector_value(value)
                         else ev.SCALAR_LOAD)
            return value
        raise InterpreterError(f"unknown expression {e!r}")

    def _binary(self, e: E.BinaryOp) -> Any:
        left = self._eval(e.left)
        right = self._eval(e.right)
        left_vec = is_vector_value(left)
        right_vec = is_vector_value(right)
        if left_vec or right_vec:
            width = len(left) if left_vec else len(right)
            if not left_vec:
                left = splat(left, width)
            if not right_vec:
                right = splat(right, width)
            self._charge(self._vector_op_event(e.op))
            return [apply_binary(e.op, a, b) for a, b in zip(left, right)]
        self._charge(self._scalar_op_event(e.op))
        return apply_binary(e.op, left, right)

    @staticmethod
    def _scalar_op_event(op: str) -> str:
        if op in _MUL_OPS:
            return ev.SCALAR_MUL
        if op in _DIV_OPS:
            return ev.SCALAR_DIV
        return ev.SCALAR_ALU

    @staticmethod
    def _vector_op_event(op: str) -> str:
        if op in _MUL_OPS:
            return ev.VECTOR_MUL
        if op in _DIV_OPS:
            return ev.VECTOR_DIV
        return ev.VECTOR_ALU

    def _call(self, e: E.Call) -> Any:
        args = [self._eval(a) for a in e.args]
        if any(is_vector_value(a) for a in args):
            width = next(len(a) for a in args if is_vector_value(a))
            cols = [a if is_vector_value(a) else splat(a, width) for a in args]
            self._charge(ev.vector_math(e.func))
            return [apply_math(e.func, [col[i] for col in cols])
                    for i in range(width)]
        self._charge(ev.scalar_math(e.func))
        return apply_math(e.func, args)

    def _select(self, e: E.Select) -> Any:
        cond = self._eval(e.cond)
        if_true = self._eval(e.if_true)
        if_false = self._eval(e.if_false)
        if is_vector_value(cond):
            self._charge(ev.VECTOR_ALU)  # blend
            width = len(cond)
            t = if_true if is_vector_value(if_true) else splat(if_true, width)
            f = if_false if is_vector_value(if_false) else splat(if_false, width)
            return [t[i] if cond[i] else f[i] for i in range(width)]
        self._charge(ev.SCALAR_ALU)
        return if_true if cond else if_false

    def _gather_pop(self, e: E.GatherPop) -> List[Any]:
        tape = self._input()
        sw = self.rt.simd_width
        lanes = [tape.peek(k * e.stride) for k in range(sw)]
        tape.advance_reader(e.advance)
        self._charge_gather(e.strategy, e.stride, sw)
        return lanes

    def _gather_peek(self, e: E.GatherPeek) -> List[Any]:
        tape = self._input()
        sw = self.rt.simd_width
        offset = int(self._eval(e.offset))
        lanes = [tape.peek(offset + k * e.stride) for k in range(sw)]
        self._charge_gather(e.strategy, e.stride, sw)
        return lanes

    def _charge_gather(self, strategy: str, stride: int, sw: int) -> None:
        if strategy == "scalar":
            self._charge(ev.SCALAR_LOAD, sw)
            self._charge(ev.PACK, sw)
        elif strategy == "permute":
            self._charge(ev.VECTOR_LOAD_U)
            if stride > 1:
                self._charge(ev.PERMUTE, int(math.log2(stride)))
        elif strategy == "sagu":
            self._charge(ev.VECTOR_LOAD)
        else:
            raise InterpreterError(f"unknown gather strategy {strategy!r}")

    def _internal_pop(self, buf_id: int) -> Any:
        buf = self.rt.internal.get(buf_id)
        head = self.rt.internal_head.get(buf_id, 0)
        if buf is None or head >= len(buf):
            raise InterpreterError(f"internal buffer {buf_id} underflow")
        value = buf[head]
        self.rt.internal_head[buf_id] = head + 1
        # Compact when fully drained (coarse-actor firings leave buffers
        # empty between firings by construction).
        if self.rt.internal_head[buf_id] == len(buf):
            buf.clear()
            self.rt.internal_head[buf_id] = 0
        self._charge(ev.VECTOR_LOAD if is_vector_value(value)
                     else ev.SCALAR_LOAD)
        return value

    @staticmethod
    def _truthy(value: Any) -> bool:
        if is_vector_value(value):
            raise InterpreterError("vector value used as branch condition")
        return bool(value)
