"""Flat stream-graph representation.

The hierarchy (:mod:`repro.graph.structure`) is flattened into actors
connected by tapes.  All compiler passes — scheduling, the three
SIMDizations, tape optimization, partitioning — operate on this graph, and
the runtime executes it directly.

The graph is deliberately mutable: MacroSS passes rewrite it in place
(fusing pipelines, replacing split-joins) exactly as the paper's Figure 2a →
Figure 2b transformation does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..ir.types import FLOAT, Scalar
from .actor import FilterSpec
from .builtins import (
    BuiltinSpec,
    HJoinerSpec,
    HSplitterSpec,
    JoinerSpec,
    SplitterSpec,
)

AnySpec = FilterSpec | BuiltinSpec


class GraphError(Exception):
    """Raised on malformed stream graphs."""


@dataclass
class ActorInstance:
    """A node of the flat graph."""

    id: int
    name: str
    spec: AnySpec

    @property
    def is_filter(self) -> bool:
        return isinstance(self.spec, FilterSpec)

    @property
    def is_splitter(self) -> bool:
        return isinstance(self.spec, (SplitterSpec, HSplitterSpec))

    @property
    def is_joiner(self) -> bool:
        return isinstance(self.spec, (JoinerSpec, HJoinerSpec))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ActorInstance({self.id}, {self.name!r})"


@dataclass
class TapeEdge:
    """A FIFO channel between two actor ports.

    ``vector_width > 1`` marks a vector tape (horizontal SIMDization);
    ``lane_ordered`` marks a scalar-element tape whose contents were written
    in vector-lane order by a vectorized producer or will be read that way by
    a vectorized consumer (the SAGU case, §3.4).
    """

    id: int
    src: int
    src_port: int
    dst: int
    dst_port: int
    data_type: Scalar = FLOAT
    vector_width: int = 1
    lane_ordered: bool = False
    #: items pre-loaded before execution starts (feedback-loop ``enqueue``;
    #: these delays are what make a cyclic SDF graph deadlock-free).
    initial: Tuple = ()

    @property
    def is_vector(self) -> bool:
        return self.vector_width > 1


class StreamGraph:
    """Mutable flat SDF graph: actors + tapes, with port bookkeeping."""

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.actors: Dict[int, ActorInstance] = {}
        self.tapes: Dict[int, TapeEdge] = {}
        self._next_actor = 0
        self._next_tape = 0
        self._names: set[str] = set()

    # -- construction -------------------------------------------------------
    def add_actor(self, spec: AnySpec, name: Optional[str] = None) -> ActorInstance:
        base = name or getattr(spec, "name", "actor")
        unique = base
        counter = 1
        while unique in self._names:
            unique = f"{base}_{counter}"
            counter += 1
        actor = ActorInstance(self._next_actor, unique, spec)
        self.actors[actor.id] = actor
        self._names.add(unique)
        self._next_actor += 1
        return actor

    def add_tape(self, src: int, dst: int, *, src_port: int = 0,
                 dst_port: int = 0, data_type: Scalar = FLOAT,
                 vector_width: int = 1) -> TapeEdge:
        if src not in self.actors or dst not in self.actors:
            raise GraphError("tape endpoints must be existing actors")
        tape = TapeEdge(self._next_tape, src, src_port, dst, dst_port,
                        data_type, vector_width)
        self.tapes[tape.id] = tape
        self._next_tape += 1
        return tape

    def remove_actor(self, actor_id: int) -> None:
        if any(t.src == actor_id or t.dst == actor_id
               for t in self.tapes.values()):
            raise GraphError("cannot remove actor with attached tapes")
        actor = self.actors.pop(actor_id)
        self._names.discard(actor.name)

    def remove_tape(self, tape_id: int) -> None:
        del self.tapes[tape_id]

    # -- queries ------------------------------------------------------------
    def in_tapes(self, actor_id: int) -> List[TapeEdge]:
        tapes = [t for t in self.tapes.values() if t.dst == actor_id]
        tapes.sort(key=lambda t: t.dst_port)
        return tapes

    def out_tapes(self, actor_id: int) -> List[TapeEdge]:
        tapes = [t for t in self.tapes.values() if t.src == actor_id]
        tapes.sort(key=lambda t: t.src_port)
        return tapes

    def input_tape(self, actor_id: int) -> Optional[TapeEdge]:
        """The single input tape of a filter (None for sources)."""
        tapes = self.in_tapes(actor_id)
        if len(tapes) > 1:
            raise GraphError(f"actor {actor_id} has multiple inputs")
        return tapes[0] if tapes else None

    def output_tape(self, actor_id: int) -> Optional[TapeEdge]:
        """The single output tape of a filter (None for terminal actors)."""
        tapes = self.out_tapes(actor_id)
        if len(tapes) > 1:
            raise GraphError(f"actor {actor_id} has multiple outputs")
        return tapes[0] if tapes else None

    def predecessors(self, actor_id: int) -> List[int]:
        return [t.src for t in self.in_tapes(actor_id)]

    def successors(self, actor_id: int) -> List[int]:
        return [t.dst for t in self.out_tapes(actor_id)]

    def sources(self) -> List[ActorInstance]:
        return [a for a in self.actors.values() if not self.in_tapes(a.id)]

    def output_actors(self) -> List[ActorInstance]:
        """Filters that push but have no output tape: whatever they push
        is the run's output.  A runnable graph has at most one."""
        return [a for a in self.actors.values()
                if a.is_filter and a.spec.push > 0
                and not self.out_tapes(a.id)]

    def actors_on_cycles(self) -> set:
        """Actors belonging to some directed cycle (feedback loops).

        MacroSS excludes them from SIMDization: vectorization multiplies an
        actor's blocking factor by SW, which starves a feedback path primed
        with only its scalar-rate delays.
        """
        on_cycle: set[int] = set()
        for start in self.actors:
            stack = [t.dst for t in self.out_tapes(start)]
            seen: set[int] = set()
            while stack:
                node = stack.pop()
                if node == start:
                    on_cycle.add(start)
                    break
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(t.dst for t in self.out_tapes(node))
        return on_cycle

    def has_cycle(self) -> bool:
        try:
            self.topological_order()
            return False
        except GraphError:
            return True

    def ordered_actors(self) -> List[int]:
        """Topological order when acyclic; a feedback-tolerant order (back
        edges with initial tokens ignored) otherwise.  For display, code
        generation, and pass iteration — *not* for scheduling feasibility,
        which :func:`repro.schedule.steady_state.build_schedule` establishes
        by simulation on cyclic graphs."""
        try:
            return self.topological_order()
        except GraphError:
            indegree = {aid: 0 for aid in self.actors}
            for tape in self.tapes.values():
                if not tape.initial:
                    indegree[tape.dst] += 1
            ready = sorted(aid for aid, deg in indegree.items() if deg == 0)
            order: List[int] = []
            while ready:
                aid = ready.pop(0)
                order.append(aid)
                for tape in self.out_tapes(aid):
                    if tape.initial:
                        continue
                    indegree[tape.dst] -= 1
                    if indegree[tape.dst] == 0:
                        ready.append(tape.dst)
                ready.sort()
            if len(order) != len(self.actors):
                raise GraphError(
                    "cyclic graph has a cycle without initial tokens")
            return order

    def topological_order(self) -> List[int]:
        """Topological order of actor ids; raises on cycles (use
        :meth:`ordered_actors` for feedback graphs)."""
        indegree = {aid: 0 for aid in self.actors}
        for tape in self.tapes.values():
            indegree[tape.dst] += 1
        # Deterministic order: seed with lowest ids first.
        ready = sorted(aid for aid, deg in indegree.items() if deg == 0)
        order: List[int] = []
        while ready:
            aid = ready.pop(0)
            order.append(aid)
            for tape in self.out_tapes(aid):
                indegree[tape.dst] -= 1
                if indegree[tape.dst] == 0:
                    ready.append(tape.dst)
            ready.sort()
        if len(order) != len(self.actors):
            raise GraphError("stream graph contains a cycle")
        return order

    # -- rate helpers ---------------------------------------------------------
    def pop_rate(self, actor_id: int, port: int = 0) -> int:
        """Elements consumed from input ``port`` per firing (in tape items:
        one vector counts as one item on a vector tape)."""
        spec = self.actors[actor_id].spec
        if isinstance(spec, FilterSpec):
            return spec.pop
        if isinstance(spec, SplitterSpec):
            return spec.pop_per_exec
        if isinstance(spec, HSplitterSpec):
            return spec.pop_per_exec
        if isinstance(spec, JoinerSpec):
            return spec.pop_per_exec(port)
        if isinstance(spec, HJoinerSpec):
            return spec.pop_per_exec
        raise TypeError(f"unknown spec {spec!r}")

    def peek_rate(self, actor_id: int, port: int = 0) -> int:
        spec = self.actors[actor_id].spec
        if isinstance(spec, FilterSpec):
            return spec.peek
        return self.pop_rate(actor_id, port)

    def push_rate(self, actor_id: int, port: int = 0) -> int:
        """Elements produced on output ``port`` per firing (in tape items)."""
        spec = self.actors[actor_id].spec
        if isinstance(spec, FilterSpec):
            return spec.push
        if isinstance(spec, SplitterSpec):
            return spec.push_per_exec(port)
        if isinstance(spec, HSplitterSpec):
            return spec.push_per_exec
        if isinstance(spec, JoinerSpec):
            return spec.push_per_exec
        if isinstance(spec, HJoinerSpec):
            return spec.push_per_exec
        raise TypeError(f"unknown spec {spec!r}")

    def clone(self) -> "StreamGraph":
        """Deep-copy the graph structure (specs are immutable and shared).

        Actor and tape ids are preserved, so analyses performed on the
        original remain valid on the clone.
        """
        other = StreamGraph(self.name)
        other._next_actor = self._next_actor
        other._next_tape = self._next_tape
        other._names = set(self._names)
        for aid, actor in self.actors.items():
            other.actors[aid] = ActorInstance(actor.id, actor.name, actor.spec)
        for tid, tape in self.tapes.items():
            other.tapes[tid] = TapeEdge(
                tape.id, tape.src, tape.src_port, tape.dst, tape.dst_port,
                tape.data_type, tape.vector_width, tape.lane_ordered,
                tape.initial)
        return other

    # -- misc -----------------------------------------------------------------
    def filters(self) -> Iterator[ActorInstance]:
        return (a for a in self.actors.values() if a.is_filter)

    def actor_by_name(self, name: str) -> ActorInstance:
        for actor in self.actors.values():
            if actor.name == name:
                return actor
        raise KeyError(name)

    def __len__(self) -> int:
        return len(self.actors)

    def summary(self) -> str:
        """One-line-per-actor description (debugging/documentation)."""
        lines = [f"StreamGraph {self.name!r}: {len(self.actors)} actors, "
                 f"{len(self.tapes)} tapes"]
        for aid in self.ordered_actors():
            actor = self.actors[aid]
            succ = ", ".join(self.actors[s].name for s in self.successors(aid))
            lines.append(f"  {actor.name} -> [{succ}]")
        return "\n".join(lines)
