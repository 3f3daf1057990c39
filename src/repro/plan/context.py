"""Shared planning context.

Partitioning, buffer sizing, and vectorization choice all consume the
same facts about a program: its graph, its schedule, per-actor compute
costs, per-edge steady-state traffic, and the target machine's price
table.  Before the planning subsystem existed those facts were
re-derived ad hoc in unrelated modules (the multicore partitioner,
channels and makespan model, ``simd/technique_choice``) that could not
see each other's costs; :class:`PlanContext` bundles them once so every
planner — and the Figure 13 model — prices candidates identically:

* ``costs`` — modeled compute cycles per actor per steady iteration
  (profiled through the ordinary executor, so they reflect whatever
  SIMDization the graph carries);
* ``traffic`` — items each tape carries per steady iteration (the
  communication volume a cut edge would move across cores);
* ``capacities`` — the deadlock-free channel capacity each tape would
  need *if cut* (sequential max occupancy + double-buffer slack), i.e.
  the buffer memory a partition pays per cut edge;
* ``comm_price`` — the target's per-element transfer cost
  (:data:`repro.perf.events.COMM`), the knob that makes a ``gpu-like``
  target favour different cuts than an ``i7``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..graph.stream_graph import StreamGraph
from ..perf import events as ev
from ..runtime.errors import StreamRuntimeError
from ..schedule.steady_state import Schedule, build_schedule
from ..simd.machine import CORE_I7, MachineDescription, get_target
from .capacity import plan_capacities, steady_crossings

__all__ = ["PlanContext", "build_plan_context", "profile_actor_costs"]


def profile_actor_costs(graph: StreamGraph, machine: MachineDescription,
                        iterations: int = 2) -> Dict[int, float]:
    """Measured per-actor steady-state cycles *per iteration* (the
    partitioners' and optimizer's compute input).

    Normalizing by the measured iteration count keeps compute loads
    commensurable with per-iteration communication charges
    (``traffic x comm_price``), so the optimizer's makespan bound means
    the same thing regardless of how long the profile ran.
    """
    from ..runtime.executor import execute
    result = execute(graph, machine=machine, iterations=iterations)
    return {actor_id: cycles / max(1, iterations)
            for actor_id, cycles in result.actor_cycles(machine).items()}


@dataclass(frozen=True)
class PlanContext:
    """Everything a planner needs to price one candidate partition."""

    graph: StreamGraph
    schedule: Schedule
    machine: MachineDescription
    #: actor id -> modeled compute cycles per steady iteration.
    costs: Dict[int, float]
    #: tape id -> items crossing per steady iteration.
    traffic: Dict[int, int]
    #: tape id -> deadlock-free channel capacity (items) if the tape is
    #: cut (sequential max occupancy + one steady iteration of headroom).
    capacities: Dict[int, int]
    #: cycles to move one element across cores on this target.
    comm_price: float

    @property
    def total_work(self) -> float:
        """Total compute cycles per steady iteration (cores=1 makespan)."""
        return sum(self.costs.values())

    @property
    def outputs_per_iteration(self) -> int:
        """Items the output actor pushes per steady iteration — the
        divisor that turns per-iteration cycles into cycles per output.

        Raises :class:`~repro.runtime.errors.StreamRuntimeError` when the
        graph has no output actor: a per-output figure is meaningless
        without outputs (it must not be masked as ``max(1, …)``).
        """
        items = sum(self.schedule.reps[actor.id] * actor.spec.push
                    for actor in self.graph.output_actors())
        if not items:
            raise StreamRuntimeError("graph produced no steady-state output")
        return items

    def comm_cycles(self, tape_id: int) -> float:
        """Cycles the receiving core pays per steady iteration if
        ``tape_id`` is cut."""
        return self.traffic[tape_id] * self.comm_price


def build_plan_context(graph: StreamGraph,
                       target: Union[str, MachineDescription, None] = None,
                       *,
                       schedule: Optional[Schedule] = None,
                       costs: Optional[Dict[int, float]] = None,
                       iterations: int = 2) -> PlanContext:
    """Profile ``graph`` on ``target`` and assemble a :class:`PlanContext`.

    ``target`` may be a registered name (``"i7"``, ``"gpu-like"``, …), a
    :class:`MachineDescription`, or ``None`` (Core i7).  ``costs``
    short-circuits profiling when the caller already holds per-iteration
    actor costs (e.g. :func:`profile_actor_costs` output).
    """
    machine = get_target(target) if target is not None else CORE_I7
    if schedule is None:
        schedule = build_schedule(graph)
    if costs is None:
        costs = profile_actor_costs(graph, machine, iterations=iterations)
    return PlanContext(
        graph=graph,
        schedule=schedule,
        machine=machine,
        costs=dict(costs),
        traffic=steady_crossings(graph, schedule),
        capacities=plan_capacities(graph, schedule, graph.tapes),
        comm_price=machine.price(ev.COMM),
    )
