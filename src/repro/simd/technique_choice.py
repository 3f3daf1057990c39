"""Cost-model arbitration between horizontal and vertical SIMDization.

An actor may be a member of both GV (a fusable pipeline) and GH (an
isomorphic split-join level).  §3.5: "Since MacroSS applies one form of
SIMDization to any actor, it uses its cost model to choose what type of
SIMDization (vertical or horizontal) is more effective for the actors that
are in both GV and GH" — guaranteeing the two sets end up disjoint.

The comparison builds both candidate forms *speculatively* (spec-level
only, no graph surgery) and prices one steady state of the region with the
static estimator (:func:`repro.simd.cost_model.estimate_firing_cycles`):
a split-join level merged into one SIMD actor plus HSplitter/HJoiner
packing work (:func:`horizontal_cost`), versus each branch fused and
single-actor SIMDized plus plain splitter/joiner moves
(:func:`vertical_cost`).  Both read the target's price table, so a target
with expensive lane insert/extract (``gpu-like``) flips levels an i7
merges horizontally.

Horizontal is forced (no comparison) when any level is stateful or any
branch cannot legally be fused — the cases §3.3 motivates it with.
"""

from __future__ import annotations

from math import gcd
from typing import Dict

from ..graph.stream_graph import StreamGraph
from ..perf import events as ev
from .analysis import is_stateful
from .cost_model import estimate_firing_cycles
from .horizontal import MergeConflict, merge_specs
from .machine import MachineDescription, UnsupportedOperation
from .segments import HorizontalCandidate
from .single_actor import vectorize_actor
from .vertical import FusionError, fuse_specs

__all__ = ["horizontal_cost", "mover_cost", "prefer_horizontal",
           "vertical_cost"]


def mover_cost(items: int, machine: MachineDescription, *,
               packs: bool) -> float:
    """Per-steady-state cost of moving ``items`` elements through a
    splitter/joiner (scalar copy) or HSplitter/HJoiner (pack/unpack)."""
    per_item = machine.price(ev.SCALAR_LOAD) + (
        machine.price(ev.PACK) if packs else machine.price(ev.SCALAR_STORE))
    return items * per_item


def horizontal_cost(graph: StreamGraph, candidate: HorizontalCandidate,
                    reps: Dict[int, int],
                    machine: MachineDescription) -> float:
    """One steady state of ``candidate`` SIMDized horizontally."""
    sw = machine.simd_width
    groups = candidate.width // sw
    total = 0.0
    for level_index in range(candidate.depth):
        level = candidate.level(level_index)
        rep = reps[level[0]]
        for group in range(groups):
            ids = level[group * sw:(group + 1) * sw]
            merged = merge_specs([graph.actors[a].spec for a in ids], sw)
            total += estimate_firing_cycles(merged, machine) * rep
    items = (reps[candidate.splitter_id]
             * graph.pop_rate(candidate.splitter_id))
    total += 2 * mover_cost(items, machine, packs=True)
    return total


def vertical_cost(graph: StreamGraph, candidate: HorizontalCandidate,
                  reps: Dict[int, int],
                  machine: MachineDescription) -> float:
    """One steady state of ``candidate`` fused + vertically SIMDized."""
    sw = machine.simd_width
    total = 0.0
    for branch in candidate.branches:
        specs = [graph.actors[a].spec for a in branch]
        branch_reps = [reps[a] for a in branch]
        if len(specs) == 1:
            coarse = specs[0]
            coarse_rep = branch_reps[0]
        else:
            coarse = fuse_specs(specs, branch_reps)
            coarse_rep = 0
            for rep in branch_reps:
                coarse_rep = gcd(coarse_rep, rep)
        vectorized = vectorize_actor(coarse, sw)
        total += estimate_firing_cycles(vectorized, machine) * coarse_rep / sw
    items = (reps[candidate.splitter_id]
             * graph.pop_rate(candidate.splitter_id))
    total += 2 * mover_cost(items, machine, packs=False)
    return total


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
