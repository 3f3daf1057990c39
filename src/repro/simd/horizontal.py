"""Horizontal SIMDization (§3.3).

Replaces ``SW`` task-parallel isomorphic actors inside a split-join with a
single data-parallel actor working on *vector tapes*; lane ``k`` carries the
k-th original branch.  Stateful actors are eligible: state lives per lane
and updates exactly as before.  The splitter and joiner are replaced by
HSplitter/HJoiner, the only points where scalar<->vector packing happens.

When the split-join has ``k * SW`` branches, the transformation produces
``k`` SIMD chains behind a reduced round-robin splitter/joiner pair (each
group of SW adjacent branches merges into one chain).

The merge is a structural zip over the SW work/init bodies: identical
nodes stay as they are, constants that differ across branches fuse into
:class:`~repro.ir.expr.VectorConst` lanes (the ``{5, 6, 7, 8}`` constant of
Figure 6b), and tape operations become their vector forms.  Variables fed
by vector data are re-typed as vectors; variables whose values can never
diverge across lanes (Figure 6b's ``place_holder``) stay scalar so they can
keep indexing arrays and steering control flow.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Set

from ..graph.actor import FilterSpec, StateVar
from ..graph.builtins import (
    HJoinerSpec,
    HSplitterSpec,
    JoinerSpec,
    SplitKind,
    SplitterSpec,
)
from ..graph.stream_graph import StreamGraph
from ..ir import expr as E
from ..ir import lvalue as L
from ..ir import stmt as S
from ..ir.stmt import Body
from ..ir.types import Scalar, Vector
from ..ir.visitors import rewrite_body_stmts
from .analysis import control_positions, expr_is_vector, propagate
from .machine import MachineDescription
from .segments import HorizontalCandidate
from .single_actor import retype_stmt


class MergeConflict(Exception):
    """The candidate actors cannot be merged into one SIMD actor (divergent
    structure, or divergence in a position that must stay scalar)."""


# --- expression merging --------------------------------------------------------

def merge_exprs(exprs: Sequence[E.Expr]) -> E.Expr:
    """Merge one expression position across the SW branches."""
    first = exprs[0]
    kind = type(first)
    if any(type(e) is not kind for e in exprs):
        raise MergeConflict(
            f"divergent expression kinds: {[type(e).__name__ for e in exprs]}")

    if kind in (E.IntConst, E.FloatConst, E.BoolConst):
        values = [e.value for e in exprs]
        if all(v == values[0] for v in values):
            return first
        return E.VectorConst(tuple(values))
    if kind is E.Var:
        _require(all(e.name == first.name for e in exprs), "variable names")
        return first
    if kind is E.ArrayRead:
        _require(all(e.name == first.name for e in exprs), "array names")
        return E.ArrayRead(first.name, merge_exprs([e.index for e in exprs]))
    if kind is E.BinaryOp:
        _require(all(e.op == first.op for e in exprs), "operators")
        return E.BinaryOp(first.op,
                          merge_exprs([e.left for e in exprs]),
                          merge_exprs([e.right for e in exprs]))
    if kind is E.UnaryOp:
        _require(all(e.op == first.op for e in exprs), "operators")
        return E.UnaryOp(first.op, merge_exprs([e.operand for e in exprs]))
    if kind is E.Call:
        _require(all(e.func == first.func for e in exprs), "call targets")
        args = [merge_exprs([e.args[i] for e in exprs])
                for i in range(len(first.args))]
        return E.Call(first.func, tuple(args))
    if kind is E.Select:
        return E.Select(merge_exprs([e.cond for e in exprs]),
                        merge_exprs([e.if_true for e in exprs]),
                        merge_exprs([e.if_false for e in exprs]))
    if kind is E.Pop:
        return E.VPop()
    if kind is E.Peek:
        return E.VPeek(merge_exprs([e.offset for e in exprs]))
    raise MergeConflict(f"cannot horizontally merge {kind.__name__}")


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise MergeConflict(f"divergent {what}")


# --- statement merging -----------------------------------------------------------

def merge_bodies(bodies: Sequence[Body],
                 forced_vectors: Set[str]) -> Body:
    """Zip-merge SW statement bodies.  ``forced_vectors`` collects names of
    arrays whose initialisers diverge (they must become vector arrays)."""
    length = len(bodies[0])
    _require(all(len(b) == length for b in bodies), "body lengths")
    merged: List[S.Stmt] = []
    for index in range(length):
        merged.append(_merge_stmt([b[index] for b in bodies], forced_vectors))
    return tuple(merged)


def _merge_stmt(stmts: Sequence[S.Stmt], forced: Set[str]) -> S.Stmt:
    first = stmts[0]
    kind = type(first)
    if any(type(s) is not kind for s in stmts):
        raise MergeConflict(
            f"divergent statement kinds: {[type(s).__name__ for s in stmts]}")

    if kind is S.DeclVar:
        _require(all(s.name == first.name and s.type == first.type
                     for s in stmts), "declarations")
        if first.init is None:
            _require(all(s.init is None for s in stmts), "initialisers")
            return first
        return S.DeclVar(first.name, first.type,
                         merge_exprs([s.init for s in stmts]))
    if kind is S.DeclArray:
        _require(all(s.name == first.name and s.elem_type == first.elem_type
                     and s.size == first.size for s in stmts), "array decls")
        inits = [s.init for s in stmts]
        if all(init is None for init in inits):
            return first
        _require(all(init is not None for init in inits), "array initialisers")
        if all(init == inits[0] for init in inits):
            return first
        merged_init = tuple(
            inits[0][j] if all(init[j] == inits[0][j] for init in inits)
            else tuple(init[j] for init in inits)
            for j in range(first.size))
        forced.add(first.name)
        return S.DeclArray(first.name, first.elem_type, first.size, merged_init)
    if kind is S.Assign:
        lhs = _merge_lvalue([s.lhs for s in stmts])
        return S.Assign(lhs, merge_exprs([s.rhs for s in stmts]))
    if kind is S.Push:
        return S.VPush(merge_exprs([s.value for s in stmts]))
    if kind is S.ExprStmt:
        return S.ExprStmt(merge_exprs([s.expr for s in stmts]))
    if kind is S.For:
        _require(all(s.var == first.var for s in stmts), "loop variables")
        return S.For(first.var,
                     merge_exprs([s.start for s in stmts]),
                     merge_exprs([s.end for s in stmts]),
                     merge_bodies([s.body for s in stmts], forced))
    if kind is S.If:
        return S.If(merge_exprs([s.cond for s in stmts]),
                    merge_bodies([s.then_body for s in stmts], forced),
                    merge_bodies([s.else_body for s in stmts], forced))
    raise MergeConflict(f"cannot horizontally merge {kind.__name__}")


def _merge_lvalue(lvalues: Sequence[L.LValue]) -> L.LValue:
    first = lvalues[0]
    kind = type(first)
    _require(all(type(lv) is kind for lv in lvalues), "lvalue kinds")
    if kind is L.VarLV:
        _require(all(lv.name == first.name for lv in lvalues), "lvalue names")
        return first
    if kind is L.ArrayLV:
        _require(all(lv.name == first.name for lv in lvalues), "lvalue names")
        return L.ArrayLV(first.name,
                         merge_exprs([lv.index for lv in lvalues]))
    raise MergeConflict(f"cannot horizontally merge lvalue {kind.__name__}")


# --- spec merging ---------------------------------------------------------------

def merge_specs(specs: Sequence[FilterSpec], sw: int) -> FilterSpec:
    """Merge ``sw`` isomorphic specs into one horizontal SIMD actor."""
    if len(specs) != sw:
        raise MergeConflict(f"expected {sw} specs, got {len(specs)}")
    forced: Set[str] = set()
    init_body = merge_bodies([s.init_body for s in specs], forced)
    work_body = merge_bodies([s.work_body for s in specs], forced)

    # State variables whose initial values diverge must be vectors.
    state_seeds: Set[str] = set(forced)
    base_state = specs[0].state
    for position, var in enumerate(base_state):
        inits = [s.state[position].init for s in specs]
        if any(init != inits[0] for init in inits):
            state_seeds.add(var.name)

    # Mark vector values; control-sensitive positions must stay scalar.
    marked = propagate((init_body, work_body), state_seeds, expr_is_vector)
    for body in (init_body, work_body):
        for what, expr in control_positions(body):
            if expr_is_vector(expr, marked):
                raise MergeConflict(f"lane-divergent {what}")
    init_body, work_body = (
        rewrite_body_stmts(body, lambda stmt: retype_stmt(stmt, marked, sw))
        for body in (init_body, work_body))

    state: List[StateVar] = []
    for position, var in enumerate(base_state):
        inits = [s.state[position].init for s in specs]
        if var.name not in marked:
            state.append(var)
            continue
        new_type = Vector(var.type, sw) if isinstance(var.type, Scalar) else var.type
        if var.is_array:
            entries = tuple(
                _merge_array_entry([_entry(init, j, var) for init in inits])
                for j in range(var.size))
            state.append(StateVar(var.name, new_type, var.size, entries))
        else:
            if all(init == inits[0] for init in inits):
                state.append(StateVar(var.name, new_type, 0, inits[0]))
            else:
                state.append(StateVar(var.name, new_type, 0, tuple(inits)))

    return replace(
        specs[0],
        name=f"{_common_prefix([s.name for s in specs])}_h",
        state=tuple(state),
        init_body=init_body,
        work_body=work_body,
    )


def _entry(init, index: int, var: StateVar):
    if isinstance(init, tuple):
        return init[index]
    return init


def _merge_array_entry(values: Sequence) -> "float | tuple":
    if all(v == values[0] for v in values):
        return values[0]
    return tuple(values)


def _common_prefix(names: Sequence[str]) -> str:
    prefix = names[0]
    for name in names[1:]:
        while not name.startswith(prefix) and prefix:
            prefix = prefix[:-1]
    return prefix.rstrip("_") or names[0]


# --- graph transformation ----------------------------------------------------------

def apply_horizontal(graph: StreamGraph, candidate: HorizontalCandidate,
                     machine: MachineDescription) -> List[int]:
    """Rewrite the candidate split-join in place.

    Returns the ids of the new horizontal SIMD actors.
    """
    sw = machine.simd_width
    width = candidate.width
    groups = width // sw
    splitter_actor = graph.actors[candidate.splitter_id]
    joiner_actor = graph.actors[candidate.joiner_id]
    splitter: SplitterSpec = splitter_actor.spec
    joiner: JoinerSpec = joiner_actor.spec
    branch_weight = (1 if splitter.kind is SplitKind.DUPLICATE
                     else splitter.weights[0])
    joiner_weight = joiner.weights[0]
    data_type = splitter.data_type

    # Merge specs per level per group of SW adjacent branches.
    merged: List[List[FilterSpec]] = []
    for group in range(groups):
        level_specs: List[FilterSpec] = []
        for level_index in range(candidate.depth):
            ids = candidate.level(level_index)[group * sw:(group + 1) * sw]
            level_specs.append(
                merge_specs([graph.actors[aid].spec for aid in ids], sw))
        merged.append(level_specs)

    in_tape = graph.input_tape(candidate.splitter_id)
    out_tape = graph.output_tape(candidate.joiner_id)

    # Remove the old internal tapes (actors go last, once the boundary
    # tapes have been retargeted to the replacement structure).
    removed = candidate.all_actor_ids() | {candidate.splitter_id,
                                           candidate.joiner_id}
    for tape in list(graph.tapes.values()):
        if tape.src in removed and tape.dst in removed:
            graph.remove_tape(tape.id)

    # Build the replacement: (optional reduced splitter) -> groups of
    # [HSplitter -> SIMD chain -> HJoiner] -> (optional reduced joiner).
    new_actor_ids: List[int] = []
    hsplit_spec = HSplitterSpec(splitter.kind, branch_weight, sw, data_type)
    hjoin_spec = HJoinerSpec(joiner_weight, sw, data_type)

    group_entries: List[int] = []
    group_exits: List[int] = []
    for group in range(groups):
        hsplit = graph.add_actor(hsplit_spec)
        previous = hsplit.id
        for spec in merged[group]:
            actor = graph.add_actor(spec)
            new_actor_ids.append(actor.id)
            graph.add_tape(previous, actor.id, data_type=spec.data_type,
                           vector_width=sw)
            previous = actor.id
        hjoin = graph.add_actor(hjoin_spec)
        graph.add_tape(previous, hjoin.id,
                       data_type=merged[group][-1].out_type, vector_width=sw)
        group_entries.append(hsplit.id)
        group_exits.append(hjoin.id)

    if groups == 1:
        if in_tape is not None:
            in_tape.dst = group_entries[0]
            in_tape.dst_port = 0
        if out_tape is not None:
            out_tape.src = group_exits[0]
            out_tape.src_port = 0
    else:
        if splitter.kind is SplitKind.DUPLICATE:
            reduced_split = SplitterSpec(SplitKind.DUPLICATE, (1,) * groups,
                                         data_type, "splitter")
        else:
            reduced_split = SplitterSpec(
                SplitKind.ROUNDROBIN, (branch_weight * sw,) * groups,
                data_type, "splitter")
        reduced_join = JoinerSpec((joiner_weight * sw,) * groups,
                                  data_type, "joiner")
        new_split = graph.add_actor(reduced_split)
        new_join = graph.add_actor(reduced_join)
        for port, (entry, exit_) in enumerate(zip(group_entries, group_exits)):
            graph.add_tape(new_split.id, entry, src_port=port,
                           data_type=data_type)
            graph.add_tape(exit_, new_join.id, dst_port=port,
                           data_type=data_type)
        if in_tape is not None:
            in_tape.dst = new_split.id
            in_tape.dst_port = 0
        if out_tape is not None:
            out_tape.src = new_join.id
            out_tape.src_port = 0

    for actor_id in sorted(removed):
        graph.remove_actor(actor_id)
    return new_actor_ids
