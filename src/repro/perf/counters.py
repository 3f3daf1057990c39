"""Event counters, per actor and aggregated."""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simd.machine import MachineDescription


class PerfCounters:
    """A bag of event counts with cycle pricing."""

    __slots__ = ("events",)

    def __init__(self, events: Mapping[str, int] | None = None) -> None:
        self.events: Counter[str] = Counter(events or {})

    def add(self, event: str, count: int = 1) -> None:
        self.events[event] += count

    def merge(self, other: "PerfCounters") -> None:
        self.events.update(other.events)

    def cycles(self, machine: "MachineDescription") -> float:
        """Total modeled cycles under ``machine``'s price table."""
        return sum(count * machine.price(event)
                   for event, count in self.events.items())

    def scaled(self, factor: float) -> "PerfCounters":
        """Counters with every count multiplied by ``factor``.

        Counts are rounded to the nearest integer — truncation would
        systematically under-count (e.g. 3 events at factor 0.5 must
        yield 2, not 1).
        """
        out = PerfCounters()
        for event, count in self.events.items():
            out.events[event] = round(count * factor)
        return out

    def __getitem__(self, event: str) -> int:
        return self.events.get(event, 0)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        top = ", ".join(f"{k}={v}" for k, v in sorted(self.events.items()))
        return f"PerfCounters({top})"


class PerActorCounters:
    """Per-actor event counters (keyed by actor id).

    The multicore partitioner needs per-actor work estimates, and the
    experiment reports break cycles down by actor.
    """

    def __init__(self) -> None:
        self.by_actor: Dict[int, PerfCounters] = {}

    def for_actor(self, actor_id: int) -> PerfCounters:
        counters = self.by_actor.get(actor_id)
        if counters is None:
            counters = PerfCounters()
            self.by_actor[actor_id] = counters
        return counters

    def total(self) -> PerfCounters:
        out = PerfCounters()
        for counters in self.by_actor.values():
            out.merge(counters)
        return out

    def cycles(self, machine: "MachineDescription") -> float:
        return self.total().cycles(machine)

    def cycles_by_actor(self, machine: "MachineDescription") -> Dict[int, float]:
        return {aid: counters.cycles(machine)
                for aid, counters in self.by_actor.items()}


def counter_bags(per_actor: PerActorCounters) -> Dict[int, Dict[str, int]]:
    """Normalize counters to comparable bags (drop zero counts and
    actors that charged nothing)."""
    return {
        actor_id: {event: count
                   for event, count in counters.events.items() if count}
        for actor_id, counters in per_actor.by_actor.items()
        if any(counters.events.values())
    }
