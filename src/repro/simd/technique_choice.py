"""Cost-model arbitration between horizontal and vertical SIMDization.

An actor may be a member of both GV (a fusable pipeline) and GH (an
isomorphic split-join level).  §3.5: "Since MacroSS applies one form of
SIMDization to any actor, it uses its cost model to choose what type of
SIMDization (vertical or horizontal) is more effective for the actors that
are in both GV and GH" — guaranteeing the two sets end up disjoint.

The comparison builds both candidate forms *speculatively* (spec-level
only, no graph surgery) and prices one steady state of the region with the
static estimator; the estimators themselves live in
:mod:`repro.plan.costs` so partition/buffer planning and SIMD technique
choice read one price table per target.

Horizontal is forced (no comparison) when any level is stateful or any
branch cannot legally be fused — the cases §3.3 motivates it with.
"""

from __future__ import annotations

from typing import Dict

from ..graph.stream_graph import StreamGraph
from ..plan.costs import horizontal_cost, vertical_cost
from .analysis import is_stateful
from .horizontal import MergeConflict
from .machine import MachineDescription, UnsupportedOperation
from .segments import HorizontalCandidate
from .vertical import FusionError

__all__ = ["prefer_horizontal"]


def prefer_horizontal(graph: StreamGraph, candidate: HorizontalCandidate,
                      reps: Dict[int, int],
                      machine: MachineDescription) -> bool:
    """True when the candidate should be SIMDized horizontally."""
    # Horizontal is the only option for stateful levels or unfusable
    # branches (vertical cannot touch them).
    for level_index in range(candidate.depth):
        for actor_id in candidate.level(level_index):
            spec = graph.actors[actor_id].spec
            if is_stateful(spec):
                return True
            if level_index > 0 and spec.is_peeking:
                return True  # peeking inner actor blocks fusion
    try:
        cost_h = horizontal_cost(graph, candidate, reps, machine)
        cost_v = vertical_cost(graph, candidate, reps, machine)
    except (MergeConflict, FusionError, UnsupportedOperation):
        return True  # one side impossible -> the other will be attempted
    return cost_h <= cost_v
