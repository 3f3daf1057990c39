"""MacroSS's internal target-specific cost model.

Two jobs:

1. **Tape strategy selection** (§3.4): price the three realisations of a
   vectorized actor's strided tape boundary — scalar strided accesses,
   permutation-based vector accesses, and plain vector accesses with the
   scalar neighbour paying address translation (software, or SAGU).
2. **Static per-firing cost estimation** of a work body, used to compare
   vectorization alternatives and by the multicore partitioner when no
   profile is available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Union

from ..graph.actor import FilterSpec, StateVar
from ..ir import expr as E
from ..ir import lvalue as L
from ..ir import stmt as S
from ..ir.visitors import children_of_expr, exprs_of_stmt
from ..perf import events as ev
from ..perf.counters import PerfCounters
from .analysis import actor_vector_names, expr_is_vector, vector_names
from .machine import MachineDescription, get_target

#: Public cost-model entry points accept either a description or a
#: registered target name ("core-i7", "sve-like", …) resolved through the
#: target registry.
MachineLike = Union[MachineDescription, str]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class StrategyCost:
    """Per-group (SW elements) cost of one tape-access strategy."""

    strategy: str
    vector_side: float
    neighbour_side: float

    @property
    def total(self) -> float:
        return self.vector_side + self.neighbour_side


def gather_strategy_costs(stride: int, machine: MachineLike,
                          *, neighbour_is_scalar: bool
                          ) -> Dict[str, StrategyCost]:
    """Candidate costs for one strided gather/scatter group of SW lanes.

    ``machine`` may be a registered target name or a description.
    ``neighbour_is_scalar`` gates the lane-ordered ("sagu") strategy: it
    shifts work onto the scalar actor on the other side of the tape, which
    must exist and be scalar.
    """
    machine = get_target(machine)
    sw = machine.simd_width
    names = ["scalar"]
    if machine.has_extract_even_odd and _is_pow2(stride):
        names.append("permute")
    if neighbour_is_scalar:
        names.append("sagu")
    costs: Dict[str, StrategyCost] = {}
    for name in names:
        # Events that share a count are priced together, so the scalar row
        # is sw * (p(s_load) + p(pack)) in that float order.
        by_count: Dict[int, float] = {}
        for event, count in ev.gather_events(name, stride, sw):
            by_count[count] = by_count.get(count, 0.0) + machine.price(event)
        vector_side = sum(count * price for count, price in by_count.items())
        # The lane-ordered strategy moves address work to the neighbour's
        # SW scalar accesses.
        neighbour_side = (sw * machine.price(ev.lane_event(machine.has_sagu))
                          if name == "sagu" else 0.0)
        costs[name] = StrategyCost(name, vector_side, neighbour_side)
    return costs


def best_gather_strategy(stride: int, machine: MachineLike,
                         *, neighbour_is_scalar: bool) -> str:
    costs = gather_strategy_costs(stride, machine,
                                  neighbour_is_scalar=neighbour_is_scalar)
    return min(costs.values(), key=lambda c: (c.total, c.strategy)).strategy


# --- static body cost estimation ------------------------------------------------

#: Assumed trip count for loops whose bounds are not compile-time constants.
_DEFAULT_TRIP = 8


def estimate_body_events(body: S.Body, simd_width: int,
                         state: Iterable[StateVar] = ()) -> PerfCounters:
    """Statically estimate the events of one execution of ``body``: each
    construct is charged as the interpreter charges it, with lane kinds
    from :func:`~repro.simd.analysis.expr_is_vector` over the names
    ``body`` and ``state`` declare as vectors (DESIGN §5d lists what stays
    approximate)."""
    return _body_events(body, simd_width, vector_names(body, state))


def estimate_firing_cycles(spec: FilterSpec, machine: MachineLike
                           ) -> float:
    """Modeled cycles of one firing of ``spec`` on ``machine``; raises
    :class:`UnsupportedOperation` when the target cannot price an event."""
    machine = get_target(machine)
    counters = _body_events(spec.work_body, machine.simd_width,
                            actor_vector_names(spec)[1])
    counters.add(ev.FIRE)
    return counters.cycles(machine)


def _body_events(body: S.Body, sw: int, vectors: Set[str]) -> PerfCounters:
    counters = PerfCounters()
    _estimate_into(body, 1.0, counters, sw, vectors)
    return counters


def _estimate_into(body: S.Body, weight: float, out: PerfCounters,
                   sw: int, vectors: Set[str]) -> None:
    for stmt in body:
        if isinstance(stmt, S.For):
            trip = _trip_count(stmt)
            out.add(ev.LOOP, round(weight * trip))
            _estimate_into(stmt.body, weight * trip, out, sw, vectors)
        elif isinstance(stmt, S.If):
            _estimate_expr(stmt.cond, weight, out, sw, vectors)
            _estimate_into(stmt.then_body, weight * 0.5, out, sw, vectors)
            _estimate_into(stmt.else_body, weight * 0.5, out, sw, vectors)
        else:
            _estimate_stmt(stmt, weight, out, sw, vectors)


def _trip_count(stmt: S.For) -> int:
    if isinstance(stmt.start, E.IntConst) and isinstance(stmt.end, E.IntConst):
        return max(0, stmt.end.value - stmt.start.value)
    return _DEFAULT_TRIP


def _estimate_stmt(stmt: S.Stmt, weight: float, out: PerfCounters,
                   sw: int, vectors: Set[str]) -> None:
    for top in exprs_of_stmt(stmt):
        _estimate_expr(top, weight, out, sw, vectors)
    count = round(weight)
    if isinstance(stmt, (S.Push, S.RPush)):
        out.add(ev.SCALAR_STORE, count)
    elif isinstance(stmt, S.VPush):
        out.add(ev.VECTOR_STORE, count)
    elif isinstance(stmt, S.InternalPush):
        out.add(_store_event(stmt.value, vectors), count)
    elif isinstance(stmt, S.ScatterPush):
        for event, n in ev.scatter_events(stmt.strategy, stmt.stride, sw):
            out.add(event, round(weight * n))
    elif isinstance(stmt, (S.AdvanceReader, S.AdvanceWriter)):
        out.add(ev.SCALAR_ALU, count)
    elif isinstance(stmt, S.CostAnnotation):
        out.add(stmt.event, round(weight * stmt.count))
    elif isinstance(stmt, S.Assign):
        if isinstance(stmt.lhs, L.ArrayLV):
            out.add(_store_event(stmt.rhs, vectors), count)
        elif isinstance(stmt.lhs, (L.LaneLV, L.ArrayLaneLV)):
            out.add(ev.PACK, count)


def _store_event(value: E.Expr, vectors: Set[str]) -> str:
    return (ev.VECTOR_STORE if expr_is_vector(value, vectors)
            else ev.SCALAR_STORE)


def _estimate_expr(expr: E.Expr, weight: float, out: PerfCounters,
                   sw: int, vectors: Set[str]) -> None:
    count = round(weight) if weight >= 1 else 1
    stack = [expr]
    while stack:
        node = stack.pop()
        stack.extend(children_of_expr(node))
        if isinstance(node, (E.GatherPop, E.GatherPeek)):
            for event, n in ev.gather_events(node.strategy, node.stride, sw):
                out.add(event, count * n)
            continue
        event = _expr_event(node, vectors)
        if event is not None:
            out.add(event, count)


def _expr_event(node: E.Expr, vectors: Set[str]) -> Optional[str]:
    """The event the interpreter charges for ``node`` itself (its operands
    aside), or None; gathers are priced by the charge sheet."""
    if isinstance(node, E.Broadcast):
        return None if expr_is_vector(node.value, vectors) else ev.SPLAT
    # A select's blend takes its condition's kind.
    vector = expr_is_vector(node.cond if isinstance(node, E.Select)
                            else node, vectors)
    if isinstance(node, E.BinaryOp):
        return ev.binary_op_event(node.op, vector)
    if isinstance(node, E.Call):
        return (ev.vector_math if vector else ev.scalar_math)(node.func)
    if isinstance(node, (E.UnaryOp, E.Select)):
        return ev.VECTOR_ALU if vector else ev.SCALAR_ALU
    if isinstance(node, (E.ArrayRead, E.Pop, E.Peek, E.VPop, E.VPeek,
                         E.InternalPop, E.InternalPeek)):
        return ev.VECTOR_LOAD if vector else ev.SCALAR_LOAD
    if isinstance(node, E.ArrayVec):
        return ev.VECTOR_LOAD_U
    return ev.UNPACK if isinstance(node, E.Lane) else None
