"""Target-aware vectorization choice.

The per-split-join horizontal/vertical arbitration (§3.5, priced in
:mod:`repro.simd.technique_choice`) happens inside compilation; this
module lifts the remaining *whole-program* decision into the planning
subsystem: given a target, is the macro-SIMDized build actually faster
than the scalar one, and which technique did each actor end up with?  On an
``i7`` the answer is nearly always "macross"; a ``gpu-like`` target
(expensive lane insert/extract, wide vectors) flips individual actors
from horizontal to vertical and can flip pack/unpack-dominated programs
back to scalar — the co-optimization signal ``macross plan`` reports
next to the partition choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from ..graph.stream_graph import StreamGraph
from ..runtime.executor import execute
from ..simd.machine import MachineDescription, get_target
from ..simd.pipeline import compile_graph

__all__ = ["VectorizationPlan", "plan_vectorization"]


@dataclass(frozen=True)
class VectorizationPlan:
    """The chosen whole-program vectorization for one target."""

    machine: str
    #: ``"macross"`` or ``"scalar"`` — whichever models faster.
    mode: str
    #: actor name -> technique verdict ("vertical:<coarse>", "single",
    #: "horizontal", "scalar:<reason>") from the compilation report.
    decisions: Dict[str, str]
    #: modeled steady cycles per produced output item (throughput metric
    #: of the figures — invariant under repetition rescaling).
    scalar_cycles: float
    macross_cycles: float

    @property
    def speedup(self) -> float:
        return (self.scalar_cycles / self.macross_cycles
                if self.macross_cycles else 1.0)

    def technique_counts(self) -> Dict[str, int]:
        """Decisions bucketed by technique family (report summary)."""
        counts: Dict[str, int] = {}
        for verdict in self.decisions.values():
            family = verdict.split(":", 1)[0]
            counts[family] = counts.get(family, 0) + 1
        return counts


def plan_vectorization(graph: StreamGraph,
                       target: Union[str, MachineDescription],
                       *,
                       iterations: int = 2,
                       options=None) -> VectorizationPlan:
    """Compile ``graph`` for ``target`` and pick scalar vs macro-SIMD by
    modeled steady cycles per output item (ties go to macross).

    Cycles are normalized per *output item*, not per steady iteration:
    SIMDization changes the repetition vector (a vertical actor fires
    ``rep / SW`` times), so one steady iteration of the macro graph can
    cover a different amount of work than one scalar iteration — per-item
    throughput is the comparison the paper's figures use.
    """
    machine = get_target(target)
    compiled = compile_graph(graph, machine, options)
    scalar_run = execute(graph, machine=machine, iterations=iterations)
    macro_run = execute(compiled.graph, machine=machine,
                        iterations=iterations)
    scalar_cycles = scalar_run.cycles_per_output(machine)
    macro_cycles = macro_run.cycles_per_output(machine)
    mode = "macross" if macro_cycles <= scalar_cycles else "scalar"
    return VectorizationPlan(
        machine=machine.name,
        mode=mode,
        decisions=dict(compiled.report.decisions),
        scalar_cycles=scalar_cycles,
        macross_cycles=macro_cycles,
    )
