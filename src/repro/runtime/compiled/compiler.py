"""IR -> closure compiler with static event aggregation.

``compile_kernel`` turns one actor body into a :class:`Kernel`: a single
Python callable that executes the body against a :class:`Frame` (the
per-actor runtime view), every constant baked into its closure as a
literal.  Compilation happens once per (body, specialisation); every
firing then runs pre-composed closures instead of re-walking the IR tree.

Two properties are load-bearing:

* **Counter equivalence.**  For any input, the kernel charges exactly the
  same multiset of performance events as
  :class:`repro.runtime.interpreter.Interpreter` does for the same body —
  the differential suite asserts this event-for-event over every registry
  app.  Events whose kind is statically certain (tape accesses, loop
  back-edges, pack/unpack, shape-inferred ALU ops) are summed into one
  per-block :class:`collections.Counter` delta at compile time and charged
  with a single batched update; only genuinely data-dependent events
  (operations on values whose scalar/vector shape the inference cannot
  prove) are charged at runtime.
* **Loud shape guards.**  Every shape-specialised fast path verifies its
  assumption with a cheap ``type(x) is list`` test and raises
  :class:`InterpreterError` on violation.  The compiled engine can
  therefore never return a silently-different answer than the
  interpreter: it either matches or fails noisily.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ...ir import expr as E
from ...ir import lvalue as L
from ...ir import stmt as S
from ...ir.types import Vector
from ...ir.visitors import iter_stmts
from ...perf import events as ev
from ..errors import InterpreterError
from ..interpreter import ActorRuntime
from ..values import BINARY_IMPLS, UNARY_IMPLS, math_impl
from .shapes import (
    SCALAR,
    UNKNOWN,
    VECTOR,
    Shape,
    array_of,
    elem_shape,
    is_list_shape,
    merge,
)

__all__ = ["Frame", "Kernel", "Specialization", "compile_kernel"]


class Frame:
    """Mutable per-actor execution frame the compiled closures run against.

    Refreshed at the top of every firing: ``locals`` is cleared, ``events``
    re-fetched from the runtime's (phase-swappable) counter bag, and the
    tape endpoints re-read so executor re-pointing (collector tapes,
    steady-phase counters) is respected.
    """

    __slots__ = ("locals", "state", "rt", "events", "inp", "out")

    def __init__(self, rt: ActorRuntime) -> None:
        self.locals: Dict[str, Any] = {}
        self.state = rt.state
        self.rt = rt
        self.events = rt.counters.events
        self.inp = rt.input
        self.out = rt.output


@dataclass(frozen=True)
class Specialization:
    """Everything (besides the body) a kernel is specialised on."""

    is_work: bool
    simd_width: int
    has_sagu: bool
    in_lane_ordered: bool
    out_lane_ordered: bool
    in_vector: bool
    state_shapes: Tuple[Tuple[str, Shape], ...]


class Kernel:
    """A compiled actor body: one callable plus chaining metadata."""

    __slots__ = ("run", "spec", "exit_state_shapes")

    def __init__(self, run: Callable[[Frame], None], spec: Specialization,
                 exit_state_shapes: Tuple[Tuple[str, Shape], ...]) -> None:
        self.run = run
        self.spec = spec
        #: state shapes after executing this body (sound over-approximation);
        #: an init kernel's exit shapes seed the work kernel's entry shapes.
        self.exit_state_shapes = exit_state_shapes


# ---------------------------------------------------------------------------
# compile context
# ---------------------------------------------------------------------------

ExprFn = Callable[[Frame], Any]
StmtFn = Callable[[Frame], None]


class _Ctx:
    __slots__ = ("spec", "state_names", "declared_locals", "shapes")

    def __init__(self, spec: Specialization,
                 declared_locals: frozenset) -> None:
        self.spec = spec
        self.state_names = frozenset(name for name, _ in spec.state_shapes)
        self.declared_locals = declared_locals
        self.shapes: Dict[str, Shape] = {}

    def shape_of(self, name: str) -> Shape:
        return self.shapes.get(name, UNKNOWN)


def _collect_locals(body: S.Body) -> frozenset:
    names = set()
    for stmt in iter_stmts(body):
        if isinstance(stmt, (S.DeclVar, S.DeclArray)):
            names.add(stmt.name)
        elif isinstance(stmt, S.For):
            names.add(stmt.var)
    return frozenset(names)


def _shape_violation(what: str) -> InterpreterError:
    return InterpreterError(
        f"compiled backend: shape assumption violated in {what} "
        f"(please report — the interpreter backend is unaffected)")


# ---------------------------------------------------------------------------
# name resolution
# ---------------------------------------------------------------------------

def _loader(name: str, ctx: _Ctx) -> ExprFn:
    """Closure reading ``name`` with Env semantics (locals shadow state)."""
    in_local = name in ctx.declared_locals
    in_state = name in ctx.state_names
    if in_local and in_state:
        def get(f: Frame) -> Any:
            loc = f.locals
            if name in loc:
                return loc[name]
            return f.state[name]
    elif in_local:
        def get(f: Frame) -> Any:
            try:
                return f.locals[name]
            except KeyError:
                raise InterpreterError(
                    f"undefined variable {name!r}") from None
    elif in_state:
        def get(f: Frame) -> Any:
            return f.state[name]
    else:
        def get(f: Frame) -> Any:
            raise InterpreterError(f"undefined variable {name!r}")
    return get


def _storer(name: str, ctx: _Ctx) -> Callable[[Frame, Any], None]:
    """Closure writing ``name`` with Env semantics (owning layer wins)."""
    in_local = name in ctx.declared_locals
    in_state = name in ctx.state_names
    if in_local and in_state:
        def put(f: Frame, value: Any) -> None:
            loc = f.locals
            if name in loc:
                loc[name] = value
            else:
                f.state[name] = value
    elif in_local:
        def put(f: Frame, value: Any) -> None:
            loc = f.locals
            if name in loc:
                loc[name] = value
            else:
                raise InterpreterError(
                    f"assignment to undeclared variable {name!r}")
    elif in_state:
        def put(f: Frame, value: Any) -> None:
            f.state[name] = value
    else:
        def put(f: Frame, value: Any) -> None:
            raise InterpreterError(
                f"assignment to undeclared variable {name!r}")
    return put


def _need_in(f: Frame):
    inp = f.inp
    if inp is None:
        raise InterpreterError("actor has no input tape")
    return inp


def _need_out(f: Frame):
    out = f.out
    if out is None:
        raise InterpreterError("actor has no output tape")
    return out


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

def _compile_expr(e: E.Expr, ctx: _Ctx) -> Tuple[ExprFn, Shape, Counter]:
    spec = ctx.spec

    if isinstance(e, E.Var):
        get = _loader(e.name, ctx)
        return get, ctx.shape_of(e.name), Counter()

    if isinstance(e, (E.IntConst, E.FloatConst, E.BoolConst)):
        value = e.value

        def lit_fn(f: Frame, _v=value) -> Any:
            return _v
        return lit_fn, SCALAR, Counter()

    if isinstance(e, E.Param):
        raise InterpreterError(
            f"unbound parameter {e.name!r} reached the compiled backend "
            f"(bind_params first)")

    if isinstance(e, E.VectorConst):
        values = e.values

        def vconst_fn(f: Frame, _v=values) -> Any:
            return list(_v)
        return vconst_fn, VECTOR, Counter()

    if isinstance(e, E.BinaryOp):
        return _compile_binary(e, ctx)

    if isinstance(e, E.UnaryOp):
        return _compile_unary(e, ctx)

    if isinstance(e, E.Call):
        return _compile_call(e, ctx)

    if isinstance(e, E.Select):
        return _compile_select(e, ctx)

    if isinstance(e, E.ArrayRead):
        return _compile_array_read(e, ctx)

    if isinstance(e, E.Lane):
        base_fn, _, st = _compile_expr(e.base, ctx)
        st = st + Counter({ev.UNPACK: 1})
        lane = e.index

        def lane_fn(f: Frame) -> Any:
            base = base_fn(f)
            if type(base) is not list:
                raise InterpreterError("lane access on scalar value")
            return base[lane]
        return lane_fn, SCALAR, st

    if isinstance(e, E.Pop):
        st = Counter({ev.SCALAR_LOAD: 1})
        if spec.in_lane_ordered:
            st[ev.lane_event(spec.has_sagu)] += 1

        def pop_fn(f: Frame) -> Any:
            return _need_in(f).pop()
        return pop_fn, (VECTOR if spec.in_vector else SCALAR), st

    if isinstance(e, E.Peek):
        off_fn, _, st = _compile_expr(e.offset, ctx)
        st = st + Counter({ev.SCALAR_LOAD: 1})
        if spec.in_lane_ordered:
            st[ev.lane_event(spec.has_sagu)] += 1

        def peek_fn(f: Frame) -> Any:
            return _need_in(f).peek(int(off_fn(f)))
        return peek_fn, (VECTOR if spec.in_vector else SCALAR), st

    if isinstance(e, E.VPop):
        st = Counter({ev.VECTOR_LOAD: 1})

        def vpop_fn(f: Frame) -> Any:
            value = _need_in(f).pop()
            if type(value) is not list:
                raise InterpreterError("vpop from a scalar tape")
            return value
        return vpop_fn, VECTOR, st

    if isinstance(e, E.VPeek):
        off_fn, _, st = _compile_expr(e.offset, ctx)
        st = st + Counter({ev.VECTOR_LOAD: 1})

        def vpeek_fn(f: Frame) -> Any:
            value = _need_in(f).peek(int(off_fn(f)))
            if type(value) is not list:
                raise InterpreterError("vpeek from a scalar tape")
            return value
        return vpeek_fn, VECTOR, st

    if isinstance(e, E.ArrayVec):
        idx_fn, _, st = _compile_expr(e.index, ctx)
        st = st + Counter({ev.VECTOR_LOAD_U: 1})
        get = _loader(e.name, ctx)
        sw = spec.simd_width
        name = e.name

        def arrayvec_fn(f: Frame) -> Any:
            start = int(idx_fn(f))
            array = get(f)
            if start + sw > len(array):
                raise InterpreterError(
                    f"vector load past end of array {name!r}")
            return list(array[start:start + sw])
        return arrayvec_fn, VECTOR, st

    if isinstance(e, E.Broadcast):
        return _compile_broadcast(e, ctx)

    if isinstance(e, E.GatherPop):
        st = Counter(dict(_sheet(ev.gather_events, e.strategy, e.stride,
                                 spec.simd_width)))
        offsets = tuple(k * e.stride for k in range(spec.simd_width))
        advance = e.advance

        def gather_pop_fn(f: Frame) -> Any:
            tape = _need_in(f)
            peek = tape.peek
            lanes = [peek(o) for o in offsets]
            tape.advance_reader(advance)
            return lanes
        return gather_pop_fn, VECTOR, st

    if isinstance(e, E.GatherPeek):
        off_fn, _, ost = _compile_expr(e.offset, ctx)
        st = ost + Counter(dict(_sheet(ev.gather_events, e.strategy,
                                       e.stride, spec.simd_width)))
        offsets = tuple(k * e.stride for k in range(spec.simd_width))

        def gather_peek_fn(f: Frame) -> Any:
            tape = _need_in(f)
            base = int(off_fn(f))
            peek = tape.peek
            return [peek(base + o) for o in offsets]
        return gather_peek_fn, VECTOR, st

    if isinstance(e, E.InternalPop):
        buf_id = e.buf

        def internal_pop_fn(f: Frame) -> Any:
            rt = f.rt
            buf = rt.internal.get(buf_id)
            head = rt.internal_head.get(buf_id, 0)
            if buf is None or head >= len(buf):
                raise InterpreterError(f"internal buffer {buf_id} underflow")
            value = buf[head]
            head += 1
            rt.internal_head[buf_id] = head
            if head == len(buf):
                buf.clear()
                rt.internal_head[buf_id] = 0
            f.events[ev.VECTOR_LOAD if type(value) is list
                     else ev.SCALAR_LOAD] += 1
            return value
        return internal_pop_fn, UNKNOWN, Counter()

    if isinstance(e, E.InternalPeek):
        off_fn, _, st = _compile_expr(e.offset, ctx)
        buf_id = e.buf

        def internal_peek_fn(f: Frame) -> Any:
            rt = f.rt
            offset = int(off_fn(f))
            buf = rt.internal.get(buf_id, [])
            head = rt.internal_head.get(buf_id, 0)
            if head + offset >= len(buf):
                raise InterpreterError(f"internal buffer {buf_id} underflow")
            value = buf[head + offset]
            f.events[ev.VECTOR_LOAD if type(value) is list
                     else ev.SCALAR_LOAD] += 1
            return value
        return internal_peek_fn, UNKNOWN, st

    raise InterpreterError(f"unknown expression {e!r}")


def _sheet(charges: Callable[[str, int, int], ev.Charges], strategy: str,
           stride: int, sw: int) -> ev.Charges:
    """A gather or scatter's charges; an unknown strategy is an
    :class:`InterpreterError`, as on the interpreter."""
    try:
        return charges(strategy, stride, sw)
    except ev.UnknownStrategy as exc:
        raise InterpreterError(str(exc)) from None


def _compile_binary(e: E.BinaryOp, ctx: _Ctx) -> Tuple[ExprFn, Shape, Counter]:
    lf, lsh, lst = _compile_expr(e.left, ctx)
    rf, rsh, rst = _compile_expr(e.right, ctx)
    static = lst + rst
    op = e.op
    impl = BINARY_IMPLS[op]
    s_event = ev.binary_op_event(op, vector=False)
    v_event = ev.binary_op_event(op, vector=True)

    if lsh is SCALAR and rsh is SCALAR:
        static[s_event] += 1

        def scalar_fn(f: Frame) -> Any:
            a = lf(f)
            b = rf(f)
            if type(a) is list or type(b) is list:
                raise _shape_violation(f"scalar {op}")
            return impl(a, b)
        return scalar_fn, SCALAR, static

    l_list = is_list_shape(lsh)
    r_list = is_list_shape(rsh)
    if l_list or r_list:
        static[v_event] += 1
        if l_list and r_list:
            def vv_fn(f: Frame) -> Any:
                a = lf(f)
                b = rf(f)
                if type(a) is not list or type(b) is not list:
                    raise _shape_violation(f"vector {op}")
                return [impl(x, y) for x, y in zip(a, b)]
            return vv_fn, VECTOR, static
        if l_list:
            def vx_fn(f: Frame) -> Any:
                a = lf(f)
                b = rf(f)
                if type(a) is not list:
                    raise _shape_violation(f"vector {op}")
                if type(b) is list:
                    return [impl(x, y) for x, y in zip(a, b)]
                return [impl(x, b) for x in a]
            return vx_fn, VECTOR, static

        def xv_fn(f: Frame) -> Any:
            a = lf(f)
            b = rf(f)
            if type(b) is not list:
                raise _shape_violation(f"vector {op}")
            if type(a) is list:
                return [impl(x, y) for x, y in zip(a, b)]
            return [impl(a, y) for y in b]
        return xv_fn, VECTOR, static

    def dyn_fn(f: Frame) -> Any:
        a = lf(f)
        b = rf(f)
        a_vec = type(a) is list
        b_vec = type(b) is list
        if a_vec or b_vec:
            f.events[v_event] += 1
            if a_vec and b_vec:
                return [impl(x, y) for x, y in zip(a, b)]
            if a_vec:
                return [impl(x, b) for x in a]
            return [impl(a, y) for y in b]
        f.events[s_event] += 1
        return impl(a, b)
    return dyn_fn, UNKNOWN, static


def _compile_unary(e: E.UnaryOp, ctx: _Ctx) -> Tuple[ExprFn, Shape, Counter]:
    vf, vsh, static = _compile_expr(e.operand, ctx)
    impl = UNARY_IMPLS[e.op]
    op = e.op

    if vsh is SCALAR:
        static = static + Counter({ev.SCALAR_ALU: 1})

        def scalar_fn(f: Frame) -> Any:
            a = vf(f)
            if type(a) is list:
                raise _shape_violation(f"scalar unary {op}")
            return impl(a)
        return scalar_fn, SCALAR, static

    if is_list_shape(vsh):
        static = static + Counter({ev.VECTOR_ALU: 1})

        def vector_fn(f: Frame) -> Any:
            a = vf(f)
            if type(a) is not list:
                raise _shape_violation(f"vector unary {op}")
            return [impl(x) for x in a]
        return vector_fn, VECTOR, static

    def dyn_fn(f: Frame) -> Any:
        a = vf(f)
        if type(a) is list:
            f.events[ev.VECTOR_ALU] += 1
            return [impl(x) for x in a]
        f.events[ev.SCALAR_ALU] += 1
        return impl(a)
    return dyn_fn, UNKNOWN, static


def _compile_call(e: E.Call, ctx: _Ctx) -> Tuple[ExprFn, Shape, Counter]:
    compiled = [_compile_expr(a, ctx) for a in e.args]
    arg_fns = tuple(fn for fn, _, _ in compiled)
    shapes = [sh for _, sh, _ in compiled]
    static = Counter()
    for _, _, st in compiled:
        static.update(st)
    impl = math_impl(e.func)
    func = e.func
    s_event = ev.scalar_math(func)
    v_event = ev.vector_math(func)

    if all(sh is SCALAR for sh in shapes):
        static[s_event] += 1

        def scalar_fn(f: Frame) -> Any:
            args = [fn(f) for fn in arg_fns]
            for a in args:
                if type(a) is list:
                    raise _shape_violation(f"scalar call {func}")
            return impl(*args)
        return scalar_fn, SCALAR, static

    def lanewise(args: List[Any], f: Frame) -> Any:
        width = next(len(a) for a in args if type(a) is list)
        cols = [a if type(a) is list else [a] * width for a in args]
        return [impl(*[col[i] for col in cols]) for i in range(width)]

    if any(is_list_shape(sh) for sh in shapes):
        static[v_event] += 1

        def vector_fn(f: Frame) -> Any:
            args = [fn(f) for fn in arg_fns]
            if not any(type(a) is list for a in args):
                raise _shape_violation(f"vector call {func}")
            return lanewise(args, f)
        return vector_fn, VECTOR, static

    def dyn_fn(f: Frame) -> Any:
        args = [fn(f) for fn in arg_fns]
        if any(type(a) is list for a in args):
            f.events[v_event] += 1
            return lanewise(args, f)
        f.events[s_event] += 1
        return impl(*args)
    return dyn_fn, UNKNOWN, static


def _compile_select(e: E.Select, ctx: _Ctx) -> Tuple[ExprFn, Shape, Counter]:
    cf, csh, cst = _compile_expr(e.cond, ctx)
    tf, tsh, tst = _compile_expr(e.if_true, ctx)
    ff, fsh, fst = _compile_expr(e.if_false, ctx)
    static = cst + tst + fst

    def blend(cond: List[Any], t: Any, fv: Any) -> Any:
        width = len(cond)
        tt = t if type(t) is list else [t] * width
        flist = fv if type(fv) is list else [fv] * width
        return [tt[i] if cond[i] else flist[i] for i in range(width)]

    if csh is SCALAR:
        static[ev.SCALAR_ALU] += 1

        def scalar_fn(f: Frame) -> Any:
            cond = cf(f)
            t = tf(f)
            fv = ff(f)
            if type(cond) is list:
                raise _shape_violation("scalar select")
            return t if cond else fv
        return scalar_fn, merge(tsh, fsh), static

    if is_list_shape(csh):
        static[ev.VECTOR_ALU] += 1

        def vector_fn(f: Frame) -> Any:
            cond = cf(f)
            t = tf(f)
            fv = ff(f)
            if type(cond) is not list:
                raise _shape_violation("vector select")
            return blend(cond, t, fv)
        return vector_fn, VECTOR, static

    def dyn_fn(f: Frame) -> Any:
        cond = cf(f)
        t = tf(f)
        fv = ff(f)
        if type(cond) is list:
            f.events[ev.VECTOR_ALU] += 1
            return blend(cond, t, fv)
        f.events[ev.SCALAR_ALU] += 1
        return t if cond else fv
    return dyn_fn, UNKNOWN, static


def _compile_array_read(e: E.ArrayRead,
                        ctx: _Ctx) -> Tuple[ExprFn, Shape, Counter]:
    idx_fn, _, static = _compile_expr(e.index, ctx)
    get = _loader(e.name, ctx)
    elem = elem_shape(ctx.shape_of(e.name))

    if elem is SCALAR:
        static = static + Counter({ev.SCALAR_LOAD: 1})

        def scalar_fn(f: Frame) -> Any:
            index = int(idx_fn(f))
            value = get(f)[index]
            if type(value) is list:
                raise _shape_violation("scalar array read")
            return value
        return scalar_fn, SCALAR, static

    if elem is VECTOR:
        static = static + Counter({ev.VECTOR_LOAD: 1})

        def vector_fn(f: Frame) -> Any:
            index = int(idx_fn(f))
            value = get(f)[index]
            if type(value) is not list:
                raise _shape_violation("vector array read")
            return value
        return vector_fn, VECTOR, static

    def dyn_fn(f: Frame) -> Any:
        index = int(idx_fn(f))
        value = get(f)[index]
        f.events[ev.VECTOR_LOAD if type(value) is list
                 else ev.SCALAR_LOAD] += 1
        return value
    return dyn_fn, elem, static


def _compile_broadcast(e: E.Broadcast,
                       ctx: _Ctx) -> Tuple[ExprFn, Shape, Counter]:
    vf, vsh, static = _compile_expr(e.value, ctx)
    width = e.width

    if is_list_shape(vsh):
        # Broadcasting an existing vector is the identity (and charges
        # nothing), exactly as in the interpreter.
        return vf, VECTOR, static

    if vsh is SCALAR:
        static = static + Counter({ev.SPLAT: 1})

        def splat_fn(f: Frame) -> Any:
            value = vf(f)
            if type(value) is list:
                raise _shape_violation("broadcast")
            return [value] * width
        return splat_fn, VECTOR, static

    def dyn_fn(f: Frame) -> Any:
        value = vf(f)
        if type(value) is list:
            return value
        f.events[ev.SPLAT] += 1
        return [value] * width
    return dyn_fn, VECTOR, static


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

def _compile_stmt(stmt: S.Stmt,
                  ctx: _Ctx) -> Tuple[Optional[StmtFn], Counter]:
    spec = ctx.spec

    if isinstance(stmt, S.Assign):
        return _compile_assign(stmt, ctx)

    if isinstance(stmt, S.DeclVar):
        name = stmt.name
        if stmt.init is not None:
            init_fn, ish, static = _compile_expr(stmt.init, ctx)

            def decl_fn(f: Frame) -> None:
                value = init_fn(f)
                if type(value) is list:
                    value = list(value)
                f.locals[name] = value
            ctx.shapes[name] = ish
            return decl_fn, static
        if isinstance(stmt.type, Vector):
            width = stmt.type.width

            def declv_fn(f: Frame) -> None:
                f.locals[name] = [0.0] * width
            ctx.shapes[name] = VECTOR
            return declv_fn, Counter()

        def decl0_fn(f: Frame) -> None:
            f.locals[name] = 0.0
        ctx.shapes[name] = SCALAR
        return decl0_fn, Counter()

    if isinstance(stmt, S.DeclArray):
        return _compile_decl_array(stmt, ctx)

    if isinstance(stmt, S.Push):
        val_fn, _, static = _compile_expr(stmt.value, ctx)
        static[ev.SCALAR_STORE] += 1
        if spec.out_lane_ordered:
            static[ev.lane_event(spec.has_sagu)] += 1

        def push_fn(f: Frame) -> None:
            out = _need_out(f)
            out.push(val_fn(f))
        return push_fn, static

    if isinstance(stmt, S.RPush):
        val_fn, _, vst = _compile_expr(stmt.value, ctx)
        off_fn, _, ost = _compile_expr(stmt.offset, ctx)
        static = vst + ost
        static[ev.SCALAR_STORE] += 1
        if spec.out_lane_ordered:
            static[ev.lane_event(spec.has_sagu)] += 1

        def rpush_fn(f: Frame) -> None:
            offset = off_fn(f)
            out = _need_out(f)
            out.rpush(val_fn(f), int(offset))
        return rpush_fn, static

    if isinstance(stmt, S.VPush):
        val_fn, _, static = _compile_expr(stmt.value, ctx)
        static[ev.VECTOR_STORE] += 1

        def vpush_fn(f: Frame) -> None:
            value = val_fn(f)
            if type(value) is not list:
                raise InterpreterError("vpush of a scalar value")
            _need_out(f).push(list(value))
        return vpush_fn, static

    if isinstance(stmt, S.ScatterPush):
        return _compile_scatter_push(stmt, ctx)

    if isinstance(stmt, S.InternalPush):
        val_fn, vsh, static = _compile_expr(stmt.value, ctx)
        buf_id = stmt.buf
        if vsh is SCALAR or is_list_shape(vsh):
            want_list = is_list_shape(vsh)
            static[ev.VECTOR_STORE if want_list else ev.SCALAR_STORE] += 1

            def ipush_fn(f: Frame) -> None:
                value = val_fn(f)
                if (type(value) is list) is not want_list:
                    raise _shape_violation("internal push")
                if want_list:
                    value = list(value)
                f.rt.internal.setdefault(buf_id, []).append(value)
            return ipush_fn, static

        def ipush_dyn_fn(f: Frame) -> None:
            value = val_fn(f)
            if type(value) is list:
                f.events[ev.VECTOR_STORE] += 1
                value = list(value)
            else:
                f.events[ev.SCALAR_STORE] += 1
            f.rt.internal.setdefault(buf_id, []).append(value)
        return ipush_dyn_fn, static

    if isinstance(stmt, S.CostAnnotation):
        return None, Counter({stmt.event: stmt.count})

    if isinstance(stmt, S.AdvanceReader):
        count = stmt.count

        def adv_r_fn(f: Frame) -> None:
            _need_in(f).advance_reader(count)
        return adv_r_fn, Counter({ev.SCALAR_ALU: 1})

    if isinstance(stmt, S.AdvanceWriter):
        count = stmt.count

        def adv_w_fn(f: Frame) -> None:
            _need_out(f).advance_writer(count)
        return adv_w_fn, Counter({ev.SCALAR_ALU: 1})

    if isinstance(stmt, S.ExprStmt):
        fn, _, static = _compile_expr(stmt.expr, ctx)

        def expr_stmt_fn(f: Frame) -> None:
            fn(f)
        return expr_stmt_fn, static

    if isinstance(stmt, S.For):
        return _compile_for(stmt, ctx)

    if isinstance(stmt, S.If):
        return _compile_if(stmt, ctx)

    raise InterpreterError(f"unknown statement {stmt!r}")


def _compile_decl_array(stmt: S.DeclArray,
                        ctx: _Ctx) -> Tuple[StmtFn, Counter]:
    name = stmt.name
    width = stmt.elem_type.width if isinstance(stmt.elem_type, Vector) else 0
    size = stmt.size
    init = stmt.init

    if init is None:
        if width:
            def decl_fn(f: Frame) -> None:
                f.locals[name] = [[0.0] * width for _ in range(size)]
        else:
            def decl_fn(f: Frame) -> None:
                f.locals[name] = [0.0] * size
    elif width:
        def decl_fn(f: Frame) -> None:
            f.locals[name] = [
                list(item) if isinstance(item, tuple) else [item] * width
                for item in init]
    else:
        def decl_fn(f: Frame) -> None:
            f.locals[name] = list(init)
    ctx.shapes[name] = array_of(VECTOR if width else SCALAR)
    return decl_fn, Counter()


def _compile_scatter_push(stmt: S.ScatterPush,
                          ctx: _Ctx) -> Tuple[StmtFn, Counter]:
    val_fn, _, static = _compile_expr(stmt.value, ctx)
    stride = stmt.stride
    strategy = stmt.strategy
    simd_width = ctx.spec.simd_width
    charges = _sheet(ev.scatter_events, strategy, stride, simd_width)
    for event, count in charges:
        static[event] += count

    def scatter_fn(f: Frame) -> None:
        value = val_fn(f)
        if type(value) is not list:
            raise InterpreterError("scatter_push of a scalar value")
        out = _need_out(f)
        sw = len(value)
        if sw != simd_width:
            # The block already paid for simd_width lanes; the interpreter
            # charges by the pushed vector's width.
            events = f.events
            for event, count in charges:
                events[event] -= count
            for event, count in ev.scatter_events(strategy, stride, sw):
                events[event] += count
        for lane in range(1, sw):
            out.rpush(value[lane], lane * stride)
        out.push(value[0])
    return scatter_fn, static


def _compile_assign(stmt: S.Assign, ctx: _Ctx) -> Tuple[StmtFn, Counter]:
    rhs_fn, rsh, static = _compile_expr(stmt.rhs, ctx)
    lhs = stmt.lhs

    if isinstance(lhs, L.VarLV):
        put = _storer(lhs.name, ctx)

        def var_assign_fn(f: Frame) -> None:
            value = rhs_fn(f)
            if type(value) is list:
                value = list(value)
            put(f, value)
        ctx.shapes[lhs.name] = rsh
        return var_assign_fn, static

    if isinstance(lhs, L.ArrayLV):
        idx_fn, _, ist = _compile_expr(lhs.index, ctx)
        static = static + ist
        get = _loader(lhs.name, ctx)
        current = ctx.shape_of(lhs.name)
        if isinstance(current, tuple):
            ctx.shapes[lhs.name] = ("array", merge(current[1], rsh))
        if rsh is SCALAR or is_list_shape(rsh):
            want_list = is_list_shape(rsh)
            static[ev.VECTOR_STORE if want_list else ev.SCALAR_STORE] += 1

            def array_assign_fn(f: Frame) -> None:
                value = rhs_fn(f)
                index = int(idx_fn(f))
                array = get(f)
                if (type(value) is list) is not want_list:
                    raise _shape_violation("array store")
                if want_list:
                    value = list(value)
                array[index] = value
            return array_assign_fn, static

        def array_assign_dyn_fn(f: Frame) -> None:
            value = rhs_fn(f)
            index = int(idx_fn(f))
            array = get(f)
            if type(value) is list:
                f.events[ev.VECTOR_STORE] += 1
                value = list(value)
            else:
                f.events[ev.SCALAR_STORE] += 1
            array[index] = value
        return array_assign_dyn_fn, static

    if isinstance(lhs, L.LaneLV):
        get = _loader(lhs.name, ctx)
        lane = lhs.lane
        name = lhs.name
        static[ev.PACK] += 1

        def lane_assign_fn(f: Frame) -> None:
            value = rhs_fn(f)
            vec = get(f)
            if type(vec) is not list:
                raise InterpreterError(f"{name} is not a vector")
            vec[lane] = value
        return lane_assign_fn, static

    if isinstance(lhs, L.ArrayLaneLV):
        idx_fn, _, ist = _compile_expr(lhs.index, ctx)
        static = static + ist
        get = _loader(lhs.name, ctx)
        lane = lhs.lane
        static[ev.PACK] += 1

        def array_lane_assign_fn(f: Frame) -> None:
            value = rhs_fn(f)
            index = int(idx_fn(f))
            vec = get(f)[index]
            vec[lane] = value
        return array_lane_assign_fn, static

    raise InterpreterError(f"unknown lvalue {lhs!r}")


def _compile_if(stmt: S.If, ctx: _Ctx) -> Tuple[StmtFn, Counter]:
    cond_fn, _, static = _compile_expr(stmt.cond, ctx)
    base = dict(ctx.shapes)

    ctx.shapes = dict(base)
    then_fns, then_static = _compile_body(stmt.then_body, ctx)
    then_shapes = ctx.shapes

    ctx.shapes = dict(base)
    else_fns, else_static = _compile_body(stmt.else_body, ctx)
    else_shapes = ctx.shapes

    merged: Dict[str, Shape] = {}
    for name in set(then_shapes) | set(else_shapes):
        a = then_shapes.get(name, base.get(name))
        b = else_shapes.get(name, base.get(name))
        if a is None:
            a = b
        if b is None:
            b = a
        merged[name] = merge(a, b)
    ctx.shapes = merged

    then_run = _make_runner(then_fns, then_static)
    else_run = _make_runner(else_fns, else_static)

    def if_fn(f: Frame) -> None:
        cond = cond_fn(f)
        if type(cond) is list:
            raise InterpreterError("vector value used as branch condition")
        if cond:
            then_run(f)
        else:
            else_run(f)
    return if_fn, static


def _compile_for(stmt: S.For, ctx: _Ctx) -> Tuple[StmtFn, Counter]:
    start_fn, _, sst = _compile_expr(stmt.start, ctx)
    end_fn, _, est = _compile_expr(stmt.end, ctx)
    static = sst + est
    var = stmt.var

    pre = dict(ctx.shapes)
    pre[var] = SCALAR
    body_fns: Tuple[StmtFn, ...] = ()
    body_static = Counter()
    for attempt in range(8):
        ctx.shapes = dict(pre)
        body_fns, body_static = _compile_body(stmt.body, ctx)
        post = ctx.shapes
        stable = dict(post)
        for name, shape in post.items():
            if name in pre:
                stable[name] = merge(pre[name], shape)
        if stable == pre:
            break
        if attempt >= 5:  # safety valve: force everything unstable to ⊤
            stable = {name: UNKNOWN for name in stable}
        pre = stable
    ctx.shapes = dict(pre)

    body_items = tuple(body_static.items())

    def for_fn(f: Frame) -> None:
        start = int(start_fn(f))
        end = int(end_fn(f))
        loc = f.locals
        loc[var] = start
        n = end - start
        if n <= 0:
            return
        events = f.events
        events[ev.LOOP] += n
        for event, count in body_items:
            events[event] += count * n
        for index in range(start, end):
            loc[var] = index
            for fn in body_fns:
                fn(f)
    return for_fn, static


# ---------------------------------------------------------------------------
# bodies and kernels
# ---------------------------------------------------------------------------

def _compile_body(body: S.Body,
                  ctx: _Ctx) -> Tuple[Tuple[StmtFn, ...], Counter]:
    fns: List[StmtFn] = []
    static = Counter()
    for stmt in body:
        fn, st = _compile_stmt(stmt, ctx)
        if st:
            static.update(st)
        if fn is not None:
            fns.append(fn)
    return tuple(fns), static


def _make_runner(fns: Tuple[StmtFn, ...],
                 static: Counter) -> Callable[[Frame], None]:
    items = tuple((event, count) for event, count in static.items() if count)
    if not items:
        if not fns:
            return lambda f: None

        def run_plain(f: Frame) -> None:
            for fn in fns:
                fn(f)
        return run_plain

    def run(f: Frame) -> None:
        events = f.events
        for event, count in items:
            events[event] += count
        for fn in fns:
            fn(f)
    return run


def compile_kernel(body: S.Body, spec: Specialization) -> Kernel:
    """Compile one body under ``spec`` into a :class:`Kernel`.

    Work kernels iterate state-shape inference to a cross-firing fixpoint
    (a state variable assigned a different shape than it started with
    degrades to ``UNKNOWN``, never to a wrong specialisation).
    """
    declared = _collect_locals(body)
    entry: Dict[str, Shape] = dict(spec.state_shapes)
    ctx = _Ctx(spec, declared)
    fns: Tuple[StmtFn, ...] = ()
    static = Counter()
    exit_state: Dict[str, Shape] = dict(entry)
    for _ in range(8):
        ctx.shapes = dict(entry)
        fns, static = _compile_body(body, ctx)
        exit_state = {name: merge(entry[name],
                                  ctx.shapes.get(name, entry[name]))
                      for name in entry}
        if not spec.is_work or exit_state == entry:
            break
        entry = exit_state

    if spec.is_work:
        static = static + Counter({ev.FIRE: 1})
    run = _make_runner(fns, static)
    return Kernel(run, spec, tuple(sorted(exit_state.items())))
