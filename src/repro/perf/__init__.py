"""Performance events and counters."""

from .counters import PerActorCounters, PerfCounters, counter_bags
from .report import classify_cycles, event_class_table, profile_table

__all__ = ["PerActorCounters", "PerfCounters", "counter_bags",
           "classify_cycles", "event_class_table", "profile_table"]
