"""SIMDizability analysis (§3.1, last paragraph).

An actor is excluded from single-actor / vertical SIMDization when it:

* has mutable state (writes a state variable in its work body) — parallel
  lane executions would race on it;
* is a splitter or joiner (pure tape movement, no computation) — handled by
  the caller, since those are not :class:`FilterSpec`;
* calls a math function the target SIMD engine does not implement;
* has input-tape-dependent control flow or memory accesses (an ``if``
  condition, loop bound, or array subscript computed from popped/peeked
  data).  The paper lets a cost model decide whether to vectorize such
  actors with unpack/repack bridges; this reproduction conservatively
  rejects them (documented deviation in DESIGN.md).

Sources (``pop == 0``) are rejected unless stateless — a stateless source
is a constant generator and vectorizes trivially, but real sources carry
counters/PRNG state.

The module is also the one home of the lane-kind rule (which IR values
are vectors) and of the fixpoint and control positions that tape taint
and horizontal lane divergence share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (AbstractSet, Callable, Iterable, Iterator, List, Sequence,
                    Set, Tuple)

from ..graph.actor import FilterSpec, StateVar
from ..ir import expr as E
from ..ir import lvalue as L
from ..ir import stmt as S
from ..ir.types import Vector
from ..ir.visitors import (children_of_expr, exprs_of_stmt, iter_all_exprs,
                           iter_expr, iter_stmts)
from .machine import MachineDescription


@dataclass(frozen=True)
class Verdict:
    """Outcome of analysing one actor."""

    simdizable: bool
    reasons: Tuple[str, ...] = ()

    @staticmethod
    def ok() -> "Verdict":
        return Verdict(True)

    @staticmethod
    def no(*reasons: str) -> "Verdict":
        return Verdict(False, tuple(reasons))


def written_state_vars(spec: FilterSpec) -> Set[str]:
    """Names of state variables assigned in the work body."""
    state_names = {var.name for var in spec.state}
    written: Set[str] = set()
    for stmt in iter_stmts(spec.work_body):
        if isinstance(stmt, S.Assign):
            name = getattr(stmt.lhs, "name", None)
            if name in state_names:
                written.add(name)
    return written


def is_stateful(spec: FilterSpec) -> bool:
    """True when the work body mutates persistent state.

    Read-only state (e.g. coefficient tables filled by ``init``) does not
    make an actor stateful — every lane reads the same values.
    """
    return bool(written_state_vars(spec))


# --- lane kinds ------------------------------------------------------------

#: Expressions whose value is a vector whatever their operands: the
#: vector and gather reads, vector loads, literals and splats.
_VECTOR_PRODUCERS = (E.VPop, E.VPeek, E.GatherPop, E.GatherPeek,
                     E.ArrayVec, E.VectorConst, E.Broadcast)


def internal_buffer(buf: int) -> str:
    """The name the lane-kind rule files internal buffer ``buf`` under
    (not an IR identifier, so it never collides with a variable)."""
    return f"<internal {buf}>"


def expr_is_vector(expr: E.Expr, vector_vars: AbstractSet[str]) -> bool:
    """True when ``expr`` evaluates to a vector value.

    Vector producers are vectors, scalar tape reads (``Pop``/``Peek``) and
    lane reads (``lane(v, k)``) are scalars, a variable or array element is
    a vector when its name is in ``vector_vars``, an internal-buffer read
    is one when its :func:`internal_buffer` name is, and an operator, call
    or select is a vector when any operand (a select's condition or an
    arm) is one.
    """
    if isinstance(expr, _VECTOR_PRODUCERS):
        return True
    if isinstance(expr, (E.Var, E.ArrayRead)):
        return expr.name in vector_vars
    if isinstance(expr, (E.InternalPop, E.InternalPeek)):
        return internal_buffer(expr.buf) in vector_vars
    if isinstance(expr, (E.BinaryOp, E.UnaryOp, E.Call, E.Select)):
        return any(expr_is_vector(child, vector_vars)
                   for child in children_of_expr(expr))
    return False


def vector_names(body: S.Body, state: Iterable[StateVar] = ()) -> Set[str]:
    """The names the lane-kind rule reads ``body`` with, as the only body
    of an actor with ``state`` (see :func:`actor_vector_names`)."""
    return _vector_names((body,), state)[0]


def actor_vector_names(spec: FilterSpec) -> Tuple[Set[str], Set[str]]:
    """The names the lane-kind rule reads ``spec``'s init and work bodies
    with.

    Locals are per body: the vector-typed locals and arrays of vector
    elements the body declares.  State and internal buffers are
    actor-wide: the vector-typed state, and the :func:`internal_buffer`
    name of every buffer either body pushes vectors into (a buffer init
    fills is read by work).
    """
    init, work = _vector_names((spec.init_body, spec.work_body), spec.state)
    return init, work


def _vector_names(bodies: Sequence[S.Body],
                  state: Iterable[StateVar]) -> List[Set[str]]:
    shared = {var.name for var in state if isinstance(var.type, Vector)}
    scopes = []
    for body in bodies:
        declared, pushes = set(), []
        for stmt in iter_stmts(body):
            if isinstance(stmt, S.DeclVar) and isinstance(stmt.type, Vector) \
                    or isinstance(stmt, S.DeclArray) \
                    and isinstance(stmt.elem_type, Vector):
                declared.add(stmt.name)
            elif isinstance(stmt, S.InternalPush):
                pushes.append(stmt)
        scopes.append((declared, tuple(pushes)))
    # A pushed value may read another buffer, hence the fixpoint.
    grown = True
    while grown:
        grown = False
        for declared, pushes in scopes:
            found = propagate((pushes,), declared | shared,
                              expr_is_vector) - declared
            if not found <= shared:
                shared |= found
                grown = True
    return [declared | shared for declared, _ in scopes]


def propagate(bodies: Sequence[S.Body], seeds: Iterable[str],
              is_source: Callable[[E.Expr, Set[str]], bool]) -> Set[str]:
    """Fixpoint over assignments: starting from ``seeds``, mark every
    variable or array that some assignment or initialised declaration
    stores a value into, and the :func:`internal_buffer` name of every
    buffer some internal push fills, for which ``is_source(value,
    marked)`` holds."""
    marked = set(seeds)
    changed = True
    while changed:
        changed = False
        for body in bodies:
            for stmt in iter_stmts(body):
                if isinstance(stmt, S.Assign):
                    name, value = getattr(stmt.lhs, "name", None), stmt.rhs
                elif isinstance(stmt, S.DeclVar) and stmt.init is not None:
                    name, value = stmt.name, stmt.init
                elif isinstance(stmt, S.InternalPush):
                    name, value = internal_buffer(stmt.buf), stmt.value
                else:
                    continue
                if name is not None and name not in marked \
                        and is_source(value, marked):
                    marked.add(name)
                    changed = True
    return marked


def tainted_vars(body: S.Body) -> Set[str]:
    """Variables (and arrays) whose values derive from input-tape data."""
    return propagate((body,), (), _expr_tainted)


def _expr_tainted(expr: E.Expr, tainted: AbstractSet[str]) -> bool:
    for node in iter_expr(expr):
        if isinstance(node, (E.Pop, E.Peek, E.VPop, E.VPeek,
                             E.GatherPop, E.GatherPeek,
                             E.InternalPop, E.InternalPeek)):
            return True
        if isinstance(node, (E.Var, E.ArrayRead)) and node.name in tainted:
            return True
    return False


def control_positions(body: S.Body) -> Iterator[Tuple[str, E.Expr]]:
    """Yield (description, expr) pairs for every control-sensitive
    position: if conditions, loop bounds, array subscripts, peek offsets.
    These must not depend on tape data (single-actor) or diverge across
    lanes (horizontal)."""
    for stmt in iter_stmts(body):
        if isinstance(stmt, S.If):
            yield "if condition", stmt.cond
        elif isinstance(stmt, S.For):
            yield "loop bound", stmt.start
            yield "loop bound", stmt.end
        elif isinstance(stmt, S.Assign):
            if isinstance(stmt.lhs, (L.ArrayLV, L.ArrayLaneLV)):
                yield "array subscript", stmt.lhs.index
        for top in exprs_of_stmt(stmt):
            for node in iter_expr(top):
                if isinstance(node, E.ArrayRead):
                    yield "array subscript", node.index
                elif isinstance(node, (E.Peek, E.VPeek)):
                    yield "peek offset", node.offset


def analyze_filter(spec: FilterSpec, machine: MachineDescription) -> Verdict:
    """Decide single-actor SIMDizability of ``spec`` on ``machine``."""
    reasons = []
    written = written_state_vars(spec)
    if written:
        reasons.append(f"stateful: writes {sorted(written)}")
    if spec.pop == 0 and not spec.state:
        # Stateless source: vectorizable in principle, but pointless.
        reasons.append("source actor")
    elif spec.pop == 0:
        reasons.append("stateful source actor")

    unsupported = sorted(
        {node.func for node in iter_all_exprs(spec.work_body)
         if isinstance(node, E.Call)
         and not machine.supports_vector_call(node.func)})
    if unsupported:
        reasons.append(f"calls without SIMD support: {unsupported}")

    taint = tainted_vars(spec.work_body)
    for description, expr in control_positions(spec.work_body):
        if _expr_tainted(expr, taint):
            reasons.append(f"input-tape-dependent {description}")
            break

    return Verdict(not reasons, tuple(reasons))


def simdizable_filters(graph, machine: MachineDescription) -> dict[int, Verdict]:
    """Analyse every filter of a flat graph; splitters/joiners are excluded
    implicitly (they are not filters)."""
    verdicts: dict[int, Verdict] = {}
    for actor in graph.filters():
        verdicts[actor.id] = analyze_filter(actor.spec, machine)
    return verdicts

