"""Figure 11: percent speedup of vertical SIMDization over single-actor-
only macro-SIMDization.

The paper reports ~40% average, Matrix Multiply Block the largest (~114%),
and near-zero for FilterBank / BeamFormer (horizontally vectorized) and
FMRadio / AudioBeam (vectorizable actors too isolated to form pipelines).

Both configurations use the §3.1/§3.2 *scalar* strided tape accesses (no
§3.4 permutation/SAGU optimization), isolating the effect of vertical
fusion itself: the pack/unpack operations it eliminates are exactly the
ones the strided access groups perform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..simd.machine import CORE_I7, MachineDescription
from ..simd.pipeline import get_pipeline_options
from .harness import Variants, arithmetic_mean, resolve_benchmarks
from .tables import format_table


@dataclass(frozen=True)
class Fig11Row:
    benchmark: str
    improvement_percent: float


@dataclass(frozen=True)
class Fig11Result:
    rows: tuple[Fig11Row, ...]

    @property
    def mean_percent(self) -> float:
        return arithmetic_mean([r.improvement_percent for r in self.rows])

    def render(self) -> str:
        body = [(r.benchmark, r.improvement_percent) for r in self.rows]
        body.append(("AVERAGE", self.mean_percent))
        return format_table(["benchmark", "vertical improvement %"], body)


#: single-actor only, scalar tape accesses (named ablation pipeline).
_SINGLE_CONFIG = get_pipeline_options("single-only/no-tape")
#: vertical enabled, scalar tape accesses (named ablation pipeline).
_VERTICAL_CONFIG = get_pipeline_options("no-tape")


def run_fig11(machine: MachineDescription = CORE_I7,
              benchmarks: Optional[Sequence[str]] = None) -> Fig11Result:
    rows: List[Fig11Row] = []
    for name in resolve_benchmarks(benchmarks):
        variants = Variants(name, machine)
        single_only = variants.macro_cpo(_SINGLE_CONFIG)
        full = variants.macro_cpo(_VERTICAL_CONFIG)
        rows.append(Fig11Row(name, (single_only / full - 1.0) * 100.0))
    return Fig11Result(tuple(rows))


if __name__ == "__main__":  # pragma: no cover
    print(run_fig11().render())
