"""Partitioners and the partitioner registry.

A partitioner maps ``(graph, costs, cores)`` to a
:class:`Partition` — a total assignment of actors to cores with every
core index in ``range(cores)``.  Two greedy strategies ship from the
original multicore layer (LPT and contiguous topological slicing), plus
the branch-and-bound optimizer of :mod:`repro.plan.optimizer` exposed
under the names ``"opt"``/``"bb"``/``"ilp"``.

Like the target and placement-policy registries, partitioners are looked
up by (case-insensitive) name via :func:`get_partitioner`, unknown names
raise a typed :class:`UnknownPartitionerError` with a did-you-mean
suggestion and the registered-name listing, and registering a new
strategy here carries it through ``parallel_execute``/``execute(...,
partitioner=)``, Figure 13's ``multicore_speedups``, the ``macross
multicore``/``plan`` CLI, and the fuzz parallel-parity oracle's
partitioner axis with zero driver edits.

Registered entries are *factories* taking the target machine (or
``None``): communication-aware strategies close over the machine to
price cut-edge traffic; machine-oblivious ones ignore it.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..graph.stream_graph import StreamGraph
from ..runtime.errors import StreamRuntimeError
from ..simd.machine import MachineDescription

__all__ = [
    "Partition", "PartitionFn", "UnknownPartitionerError",
    "get_partitioner", "list_partitioners", "partition_contiguous",
    "partition_lpt", "register_partitioner",
]


class UnknownPartitionerError(StreamRuntimeError):
    """Raised by :func:`get_partitioner` for unregistered names.

    The message carries a did-you-mean suggestion and the full list of
    registered names, so callers (the CLI in particular) can surface it
    verbatim and exit cleanly instead of dumping a traceback.
    """


@dataclass(frozen=True)
class Partition:
    assignment: Dict[int, int]
    cores: int

    def core_of(self, actor_id: int) -> int:
        return self.assignment[actor_id]


#: A partitioner: ``(graph, per-actor costs, cores) -> Partition``.
PartitionFn = Callable[[StreamGraph, Dict[int, float], int], Partition]


def partition_lpt(graph: StreamGraph, costs: Dict[int, float],
                  cores: int) -> Partition:
    """Greedy LPT multiprocessor scheduling over profiled actor costs."""
    if cores < 1:
        raise ValueError("need at least one core")
    assignment: Dict[int, int] = {}
    loads = [0.0] * cores
    order = sorted(graph.actors,
                   key=lambda aid: (-costs.get(aid, 0.0), aid))
    for actor_id in order:
        core = min(range(cores), key=lambda c: (loads[c], c))
        assignment[actor_id] = core
        loads[core] += costs.get(actor_id, 0.0)
    return Partition(assignment, cores)


def partition_contiguous(graph: StreamGraph, costs: Dict[int, float],
                         cores: int) -> Partition:
    """Alternative partitioner: contiguous topological slices balanced by
    cost (keeps pipelines together, fewer cut tapes).  Used by the ablation
    bench to show the comm/balance trade-off.

    Edge cases share :func:`partition_lpt`'s contract: every actor is
    assigned, cores stay in ``range(cores)``, and ``cores >
    len(actors)`` simply leaves trailing cores empty.  An
    all-zero (or empty) cost map degrades to contiguous slices balanced
    by actor *count*: with no cost signal the old cumulative-threshold
    rule (``acc >= 0`` — trivially true) hopped every actor to the next
    core, piling the whole tail of the pipeline onto the last one.
    """
    if cores < 1:
        raise ValueError("need at least one core")
    order = graph.ordered_actors()
    total = sum(costs.get(aid, 0.0) for aid in order)
    assignment: Dict[int, int] = {}
    if total <= 0.0:
        # No cost signal: even contiguous slices by actor count.
        for index, actor_id in enumerate(order):
            assignment[actor_id] = (index * cores) // max(1, len(order))
        return Partition(assignment, cores)
    target = total / cores
    core = 0
    acc = 0.0
    for actor_id in order:
        assignment[actor_id] = core
        acc += costs.get(actor_id, 0.0)
        if acc >= target * (core + 1) and core < cores - 1:
            core += 1
    return Partition(assignment, cores)


# --- partitioner registry -------------------------------------------------

#: A factory: given the target machine (or ``None``), return the
#: partitioner callable.  Machine-oblivious strategies ignore the arg.
PartitionerFactory = Callable[[Optional[MachineDescription]], PartitionFn]

#: canonical lowercase name -> factory.
_PARTITIONERS: Dict[str, PartitionerFactory] = {}
#: lowercase alias -> canonical lowercase name.
_PARTITIONER_ALIASES: Dict[str, str] = {}


def register_partitioner(name: str, factory: PartitionerFactory, *,
                         aliases: Sequence[str] = ()) -> None:
    """Register a partitioner factory under ``name`` (+ aliases).

    Validation happens before any mutation, so a name/alias collision
    leaves the registry untouched (no half-registered strategies).
    """
    key = name.lower()
    akeys = [alias.lower() for alias in aliases]
    if key in _PARTITIONERS or key in _PARTITIONER_ALIASES:
        raise ValueError(f"partitioner {name!r} is already registered")
    for alias, akey in zip(aliases, akeys):
        if _PARTITIONER_ALIASES.get(akey, key) != key:
            raise ValueError(
                f"partitioner alias {alias!r} is already bound to "
                f"{_PARTITIONER_ALIASES[akey]!r}")
        if akey in _PARTITIONERS and akey != key:
            raise ValueError(
                f"partitioner alias {alias!r} collides with registered "
                f"partitioner {akey!r}")
    _PARTITIONERS[key] = factory
    for akey in akeys:
        _PARTITIONER_ALIASES[akey] = key


def get_partitioner(name: Union[str, PartitionFn],
                    machine: Optional[MachineDescription] = None
                    ) -> PartitionFn:
    """Resolve a partitioner name (case-insensitive, aliases allowed).

    Passing a callable returns it unchanged, so APIs can accept either
    form.  ``machine`` is handed to the factory: communication-aware
    strategies (the optimizer) price cut edges with it; greedy ones
    ignore it.  Unknown names raise :class:`UnknownPartitionerError`
    with a did-you-mean suggestion and the registered-name listing.
    """
    if callable(name):
        return name
    key = name.lower()
    key = _PARTITIONER_ALIASES.get(key, key)
    factory = _PARTITIONERS.get(key)
    if factory is None:
        known = list_partitioners()
        candidates = known + sorted(_PARTITIONER_ALIASES)
        close = difflib.get_close_matches(name.lower(), candidates, n=1)
        hint = f" — did you mean {close[0]!r}?" if close else ""
        raise UnknownPartitionerError(
            f"unknown partitioner {name!r}{hint} (registered "
            f"partitioners: {', '.join(known)})")
    return factory(machine)


def list_partitioners() -> List[str]:
    """Sorted canonical names of every registered partitioner."""
    return sorted(_PARTITIONERS)


def _opt_factory(machine: Optional[MachineDescription]) -> PartitionFn:
    """Branch-and-bound adapter: min-memory under the default makespan
    bound (LPT's communication-aware makespan), priced on ``machine``."""

    def partition_opt(graph: StreamGraph, costs: Dict[int, float],
                      cores: int) -> Partition:
        # Deferred import: the optimizer builds on context/evaluate,
        # which import this module for Partition.
        from .context import build_plan_context
        from .optimizer import optimize_partition
        ctx = build_plan_context(graph, machine, costs=costs)
        return optimize_partition(ctx, cores).partition

    return partition_opt


register_partitioner("lpt", lambda machine: partition_lpt)
register_partitioner("contiguous", lambda machine: partition_contiguous,
                     aliases=("contig",))
register_partitioner("opt", _opt_factory, aliases=("bb", "ilp"))
