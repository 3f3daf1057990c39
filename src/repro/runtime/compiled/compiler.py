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
  app.  Every value's scalar/vector kind is the one the IR states, read
  from :func:`repro.simd.analysis.expr_is_vector` over the body's
  :func:`~repro.simd.analysis.actor_vector_names` (carried in
  :attr:`Specialization.vectors`), so every event is summed into one
  per-block :class:`collections.Counter` delta at compile time
  and charged with a single batched update.  The one runtime charge is a
  scatter's recharge when the pushed vector is not the kernel's width.
* **Loud kind guards.**  Every kind-specialised closure verifies its
  assumption with a cheap ``type(x) is list`` test and raises
  :class:`InterpreterError` on violation, and a store that would change
  a name's kind (which ``ir.typecheck`` rejects) raises when it runs.
  The compiled engine can therefore never return a silently-different
  answer than the interpreter: it either matches or fails noisily.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ...ir import expr as E
from ...ir import lvalue as L
from ...ir import stmt as S
from ...ir.types import Vector
from ...ir.visitors import iter_stmts
from ...perf import events as ev
from ...simd.analysis import expr_is_vector
from ..errors import InterpreterError
from ..interpreter import ActorRuntime
from ..values import BINARY_IMPLS, UNARY_IMPLS, math_impl

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
    #: names of the actor's state variables
    state_names: FrozenSet[str]
    #: the names the lane-kind rule reads the body with
    #: (:func:`~repro.simd.analysis.actor_vector_names`)
    vectors: FrozenSet[str]


class Kernel:
    """A compiled actor body: one callable and what it was specialised on."""

    __slots__ = ("run", "spec")

    def __init__(self, run: Callable[[Frame], None],
                 spec: Specialization) -> None:
        self.run = run
        self.spec = spec


# ---------------------------------------------------------------------------
# compile context
# ---------------------------------------------------------------------------

ExprFn = Callable[[Frame], Any]
StmtFn = Callable[[Frame], None]


class _Ctx:
    __slots__ = ("spec", "declared_locals")

    def __init__(self, spec: Specialization, body: S.Body) -> None:
        self.spec = spec
        self.declared_locals = _collect_locals(body)

    def is_vector(self, e: E.Expr) -> bool:
        """The lane kind the IR states for ``e`` (DESIGN §5d)."""
        return expr_is_vector(e, self.spec.vectors)


def _collect_locals(body: S.Body) -> frozenset:
    names = set()
    for stmt in iter_stmts(body):
        if isinstance(stmt, (S.DeclVar, S.DeclArray)):
            names.add(stmt.name)
        elif isinstance(stmt, S.For):
            names.add(stmt.var)
    return frozenset(names)


def _kind_violation(what: str) -> InterpreterError:
    return InterpreterError(
        f"compiled backend: lane-kind assumption violated in {what} "
        f"(please report — the interpreter backend is unaffected)")


# ---------------------------------------------------------------------------
# name resolution
# ---------------------------------------------------------------------------

def _loader(name: str, ctx: _Ctx) -> ExprFn:
    """Closure reading ``name`` with Env semantics (locals shadow state)."""
    in_local = name in ctx.declared_locals
    in_state = name in ctx.spec.state_names
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
    in_state = name in ctx.spec.state_names
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

def _compile_expr(e: E.Expr, ctx: _Ctx) -> Tuple[ExprFn, Counter]:
    spec = ctx.spec

    if isinstance(e, E.Var):
        return _loader(e.name, ctx), Counter()

    if isinstance(e, (E.IntConst, E.FloatConst, E.BoolConst)):
        value = e.value

        def lit_fn(f: Frame, _v=value) -> Any:
            return _v
        return lit_fn, Counter()

    if isinstance(e, E.Param):
        raise InterpreterError(
            f"unbound parameter {e.name!r} reached the compiled backend "
            f"(bind_params first)")

    if isinstance(e, E.VectorConst):
        values = e.values

        def vconst_fn(f: Frame, _v=values) -> Any:
            return list(_v)
        return vconst_fn, Counter()

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
        base_fn, st = _compile_expr(e.base, ctx)
        st = st + Counter({ev.UNPACK: 1})
        lane = e.index

        def lane_fn(f: Frame) -> Any:
            base = base_fn(f)
            if type(base) is not list:
                raise InterpreterError("lane access on scalar value")
            return base[lane]
        return lane_fn, st

    if isinstance(e, E.Pop):
        st = Counter({ev.SCALAR_LOAD: 1})
        if spec.in_lane_ordered:
            st[ev.lane_event(spec.has_sagu)] += 1

        def pop_fn(f: Frame) -> Any:
            return _need_in(f).pop()
        return pop_fn, st

    if isinstance(e, E.Peek):
        off_fn, st = _compile_expr(e.offset, ctx)
        st = st + Counter({ev.SCALAR_LOAD: 1})
        if spec.in_lane_ordered:
            st[ev.lane_event(spec.has_sagu)] += 1

        def peek_fn(f: Frame) -> Any:
            return _need_in(f).peek(int(off_fn(f)))
        return peek_fn, st

    if isinstance(e, E.VPop):
        st = Counter({ev.VECTOR_LOAD: 1})

        def vpop_fn(f: Frame) -> Any:
            value = _need_in(f).pop()
            if type(value) is not list:
                raise InterpreterError("vpop from a scalar tape")
            return value
        return vpop_fn, st

    if isinstance(e, E.VPeek):
        off_fn, st = _compile_expr(e.offset, ctx)
        st = st + Counter({ev.VECTOR_LOAD: 1})

        def vpeek_fn(f: Frame) -> Any:
            value = _need_in(f).peek(int(off_fn(f)))
            if type(value) is not list:
                raise InterpreterError("vpeek from a scalar tape")
            return value
        return vpeek_fn, st

    if isinstance(e, E.ArrayVec):
        idx_fn, st = _compile_expr(e.index, ctx)
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
        return arrayvec_fn, st

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
        return gather_pop_fn, st

    if isinstance(e, E.GatherPeek):
        off_fn, ost = _compile_expr(e.offset, ctx)
        st = ost + Counter(dict(_sheet(ev.gather_events, e.strategy,
                                       e.stride, spec.simd_width)))
        offsets = tuple(k * e.stride for k in range(spec.simd_width))

        def gather_peek_fn(f: Frame) -> Any:
            tape = _need_in(f)
            base = int(off_fn(f))
            peek = tape.peek
            return [peek(base + o) for o in offsets]
        return gather_peek_fn, st

    if isinstance(e, (E.InternalPop, E.InternalPeek)):
        return _compile_internal_read(e, ctx)

    raise InterpreterError(f"unknown expression {e!r}")


def _sheet(charges: Callable[[str, int, int], ev.Charges], strategy: str,
           stride: int, sw: int) -> ev.Charges:
    """A gather or scatter's charges; an unknown strategy is an
    :class:`InterpreterError`, as on the interpreter."""
    try:
        return charges(strategy, stride, sw)
    except ev.UnknownStrategy as exc:
        raise InterpreterError(str(exc)) from None


def _compile_internal_read(e: E.Expr, ctx: _Ctx) -> Tuple[ExprFn, Counter]:
    want_list = ctx.is_vector(e)
    static = Counter({ev.VECTOR_LOAD if want_list else ev.SCALAR_LOAD: 1})
    buf_id = e.buf

    if isinstance(e, E.InternalPop):
        def read(f: Frame) -> Any:
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
            return value
    else:
        off_fn, ost = _compile_expr(e.offset, ctx)
        static.update(ost)

        def read(f: Frame) -> Any:
            rt = f.rt
            offset = int(off_fn(f))
            buf = rt.internal.get(buf_id, [])
            head = rt.internal_head.get(buf_id, 0)
            if head + offset >= len(buf):
                raise InterpreterError(f"internal buffer {buf_id} underflow")
            return buf[head + offset]

    def internal_read_fn(f: Frame) -> Any:
        value = read(f)
        if (type(value) is list) is not want_list:
            raise _kind_violation("internal buffer read")
        return value
    return internal_read_fn, static


def _compile_binary(e: E.BinaryOp, ctx: _Ctx) -> Tuple[ExprFn, Counter]:
    lf, lst = _compile_expr(e.left, ctx)
    rf, rst = _compile_expr(e.right, ctx)
    static = lst + rst
    op = e.op
    impl = BINARY_IMPLS[op]
    l_list = ctx.is_vector(e.left)
    r_list = ctx.is_vector(e.right)
    static[ev.binary_op_event(op, vector=l_list or r_list)] += 1

    if not (l_list or r_list):
        def scalar_fn(f: Frame) -> Any:
            a = lf(f)
            b = rf(f)
            if type(a) is list or type(b) is list:
                raise _kind_violation(f"scalar {op}")
            return impl(a, b)
        return scalar_fn, static

    if l_list and r_list:
        def vv_fn(f: Frame) -> Any:
            a = lf(f)
            b = rf(f)
            if type(a) is not list or type(b) is not list:
                raise _kind_violation(f"vector {op}")
            return [impl(x, y) for x, y in zip(a, b)]
        return vv_fn, static

    if l_list:
        def vx_fn(f: Frame) -> Any:
            a = lf(f)
            b = rf(f)
            if type(a) is not list or type(b) is list:
                raise _kind_violation(f"vector {op}")
            return [impl(x, b) for x in a]
        return vx_fn, static

    def xv_fn(f: Frame) -> Any:
        a = lf(f)
        b = rf(f)
        if type(a) is list or type(b) is not list:
            raise _kind_violation(f"vector {op}")
        return [impl(a, y) for y in b]
    return xv_fn, static


def _compile_unary(e: E.UnaryOp, ctx: _Ctx) -> Tuple[ExprFn, Counter]:
    vf, static = _compile_expr(e.operand, ctx)
    impl = UNARY_IMPLS[e.op]
    op = e.op

    if not ctx.is_vector(e.operand):
        static = static + Counter({ev.SCALAR_ALU: 1})

        def scalar_fn(f: Frame) -> Any:
            a = vf(f)
            if type(a) is list:
                raise _kind_violation(f"scalar unary {op}")
            return impl(a)
        return scalar_fn, static

    static = static + Counter({ev.VECTOR_ALU: 1})

    def vector_fn(f: Frame) -> Any:
        a = vf(f)
        if type(a) is not list:
            raise _kind_violation(f"vector unary {op}")
        return [impl(x) for x in a]
    return vector_fn, static


def _compile_call(e: E.Call, ctx: _Ctx) -> Tuple[ExprFn, Counter]:
    compiled = [_compile_expr(a, ctx) for a in e.args]
    arg_fns = tuple(fn for fn, _ in compiled)
    static = Counter()
    for _, st in compiled:
        static.update(st)
    impl = math_impl(e.func)
    func = e.func

    if not ctx.is_vector(e):
        static[ev.scalar_math(func)] += 1

        def scalar_fn(f: Frame) -> Any:
            args = [fn(f) for fn in arg_fns]
            for a in args:
                if type(a) is list:
                    raise _kind_violation(f"scalar call {func}")
            return impl(*args)
        return scalar_fn, static

    static[ev.vector_math(func)] += 1

    def vector_fn(f: Frame) -> Any:
        args = [fn(f) for fn in arg_fns]
        if not any(type(a) is list for a in args):
            raise _kind_violation(f"vector call {func}")
        width = next(len(a) for a in args if type(a) is list)
        cols = [a if type(a) is list else [a] * width for a in args]
        return [impl(*[col[i] for col in cols]) for i in range(width)]
    return vector_fn, static


def _compile_select(e: E.Select, ctx: _Ctx) -> Tuple[ExprFn, Counter]:
    cf, cst = _compile_expr(e.cond, ctx)
    tf, tst = _compile_expr(e.if_true, ctx)
    ff, fst = _compile_expr(e.if_false, ctx)
    static = cst + tst + fst

    if not ctx.is_vector(e.cond):
        static[ev.SCALAR_ALU] += 1

        def scalar_fn(f: Frame) -> Any:
            cond = cf(f)
            t = tf(f)
            fv = ff(f)
            if type(cond) is list:
                raise _kind_violation("scalar select")
            return t if cond else fv
        return scalar_fn, static

    static[ev.VECTOR_ALU] += 1

    def vector_fn(f: Frame) -> Any:
        cond = cf(f)
        t = tf(f)
        fv = ff(f)
        if type(cond) is not list:
            raise _kind_violation("vector select")
        width = len(cond)
        tt = t if type(t) is list else [t] * width
        flist = fv if type(fv) is list else [fv] * width
        return [tt[i] if cond[i] else flist[i] for i in range(width)]
    return vector_fn, static


def _compile_array_read(e: E.ArrayRead, ctx: _Ctx) -> Tuple[ExprFn, Counter]:
    idx_fn, static = _compile_expr(e.index, ctx)
    get = _loader(e.name, ctx)
    want_list = ctx.is_vector(e)
    static = static + Counter({ev.VECTOR_LOAD if want_list
                               else ev.SCALAR_LOAD: 1})

    def array_read_fn(f: Frame) -> Any:
        index = int(idx_fn(f))
        value = get(f)[index]
        if (type(value) is list) is not want_list:
            raise _kind_violation("array read")
        return value
    return array_read_fn, static


def _compile_broadcast(e: E.Broadcast, ctx: _Ctx) -> Tuple[ExprFn, Counter]:
    vf, static = _compile_expr(e.value, ctx)
    width = e.width

    if ctx.is_vector(e.value):
        # Broadcasting an existing vector is the identity (and charges
        # nothing), exactly as in the interpreter.
        def identity_fn(f: Frame) -> Any:
            value = vf(f)
            if type(value) is not list:
                raise _kind_violation("broadcast of a vector")
            return value
        return identity_fn, static

    static = static + Counter({ev.SPLAT: 1})

    def splat_fn(f: Frame) -> Any:
        value = vf(f)
        if type(value) is list:
            raise _kind_violation("broadcast")
        return [value] * width
    return splat_fn, static


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

def _compile_stmt(stmt: S.Stmt,
                  ctx: _Ctx) -> Tuple[Optional[StmtFn], Counter]:
    spec = ctx.spec

    if isinstance(stmt, S.Assign):
        return _compile_assign(stmt, ctx)

    if isinstance(stmt, S.DeclVar):
        return _compile_decl_var(stmt, ctx)

    if isinstance(stmt, S.DeclArray):
        return _compile_decl_array(stmt)

    if isinstance(stmt, S.Push):
        val_fn, static = _compile_expr(stmt.value, ctx)
        static[ev.SCALAR_STORE] += 1
        if spec.out_lane_ordered:
            static[ev.lane_event(spec.has_sagu)] += 1

        def push_fn(f: Frame) -> None:
            out = _need_out(f)
            out.push(val_fn(f))
        return push_fn, static

    if isinstance(stmt, S.RPush):
        val_fn, vst = _compile_expr(stmt.value, ctx)
        off_fn, ost = _compile_expr(stmt.offset, ctx)
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
        val_fn, static = _compile_expr(stmt.value, ctx)
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
        val_fn, static = _compile_expr(stmt.value, ctx)
        buf_id = stmt.buf
        want_list = ctx.is_vector(stmt.value)
        static[ev.VECTOR_STORE if want_list else ev.SCALAR_STORE] += 1

        def ipush_fn(f: Frame) -> None:
            value = val_fn(f)
            if (type(value) is list) is not want_list:
                raise _kind_violation("internal push")
            if want_list:
                value = list(value)
            f.rt.internal.setdefault(buf_id, []).append(value)
        return ipush_fn, static

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
        fn, static = _compile_expr(stmt.expr, ctx)

        def expr_stmt_fn(f: Frame) -> None:
            fn(f)
        return expr_stmt_fn, static

    if isinstance(stmt, S.For):
        return _compile_for(stmt, ctx)

    if isinstance(stmt, S.If):
        return _compile_if(stmt, ctx)

    raise InterpreterError(f"unknown statement {stmt!r}")


def _compile_decl_var(stmt: S.DeclVar, ctx: _Ctx) -> Tuple[StmtFn, Counter]:
    name = stmt.name
    width = stmt.type.width if isinstance(stmt.type, Vector) else 0
    if stmt.init is None:
        def decl0_fn(f: Frame) -> None:
            f.locals[name] = [0.0] * width if width else 0.0
        return decl0_fn, Counter()

    init_fn, static = _compile_expr(stmt.init, ctx)
    if width and not ctx.is_vector(stmt.init):
        # A vector local holds its scalar initialiser's (uncharged) splat.
        def splat_decl_fn(f: Frame) -> None:
            value = init_fn(f)
            if type(value) is list:
                raise _kind_violation("vector declaration")
            f.locals[name] = [value] * width
        return splat_decl_fn, static

    want_list = _store_kind(name, stmt.init, ctx)
    if want_list is None:
        return _failing(f"declaration of {name!r}"), static

    def decl_fn(f: Frame) -> None:
        value = init_fn(f)
        if (type(value) is list) is not want_list:
            raise _kind_violation("declaration")
        f.locals[name] = list(value) if want_list else value
    return decl_fn, static


def _store_kind(name: str, value: E.Expr, ctx: _Ctx) -> Optional[bool]:
    """The lane kind a store of ``value`` into ``name`` keeps: the kind the
    rule reads ``name`` with.  ``None`` when the rule gives ``value`` the
    other kind, a store ``ir.typecheck`` rejects."""
    want_list = name in ctx.spec.vectors
    return want_list if ctx.is_vector(value) is want_list else None


def _failing(what: str) -> StmtFn:
    """A statement that raises the kind violation when it runs."""
    def fail_fn(f: Frame) -> None:
        raise _kind_violation(what)
    return fail_fn


def _compile_decl_array(stmt: S.DeclArray) -> Tuple[StmtFn, Counter]:
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
    return decl_fn, Counter()


def _compile_scatter_push(stmt: S.ScatterPush,
                          ctx: _Ctx) -> Tuple[StmtFn, Counter]:
    val_fn, static = _compile_expr(stmt.value, ctx)
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
    rhs_fn, static = _compile_expr(stmt.rhs, ctx)
    lhs = stmt.lhs

    if isinstance(lhs, L.VarLV):
        put = _storer(lhs.name, ctx)
        want_list = _store_kind(lhs.name, stmt.rhs, ctx)
        if want_list is None:
            return _failing(f"assignment to {lhs.name!r}"), static

        def var_assign_fn(f: Frame) -> None:
            value = rhs_fn(f)
            if (type(value) is list) is not want_list:
                raise _kind_violation("assignment")
            put(f, list(value) if want_list else value)
        return var_assign_fn, static

    if isinstance(lhs, L.ArrayLV):
        idx_fn, ist = _compile_expr(lhs.index, ctx)
        static = static + ist
        get = _loader(lhs.name, ctx)
        want_list = _store_kind(lhs.name, stmt.rhs, ctx)
        if want_list is None:
            return _failing(f"store into {lhs.name!r}"), static
        static[ev.VECTOR_STORE if want_list else ev.SCALAR_STORE] += 1

        def array_assign_fn(f: Frame) -> None:
            value = rhs_fn(f)
            index = int(idx_fn(f))
            array = get(f)
            if (type(value) is list) is not want_list:
                raise _kind_violation("array store")
            if want_list:
                value = list(value)
            array[index] = value
        return array_assign_fn, static

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
        idx_fn, ist = _compile_expr(lhs.index, ctx)
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
    cond_fn, static = _compile_expr(stmt.cond, ctx)
    then_run = _make_runner(*_compile_body(stmt.then_body, ctx))
    else_run = _make_runner(*_compile_body(stmt.else_body, ctx))

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
    start_fn, sst = _compile_expr(stmt.start, ctx)
    end_fn, est = _compile_expr(stmt.end, ctx)
    static = sst + est
    var = stmt.var
    body_fns, body_static = _compile_body(stmt.body, ctx)
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
    """Compile one body under ``spec`` into a :class:`Kernel`."""
    fns, static = _compile_body(body, _Ctx(spec, body))
    if spec.is_work:
        static = static + Counter({ev.FIRE: 1})
    return Kernel(_make_runner(fns, static), spec)
