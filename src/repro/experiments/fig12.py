"""Figure 12: percent speedup from the SAGU on macro-SIMDized code.

The paper reports ~8.1% average; Matrix Multiply (~22%) and DCT (~17%)
benefit most (pack/unpack + scalar-memory heavy), BeamFormer (pure
horizontal) and MP3 Decoder (high compute-to-communication ratio) least.

The baseline is macro-SIMDized code with the §3.1 scalar strided tape
accesses (packing/unpacking at every scalar/vector boundary) — the
overhead the SAGU was designed to eliminate.  The SAGU variant runs the
§3.4 tape-optimization pass on a machine advertising the unit, letting the
cost model move eligible boundaries to plain vector accesses with
SAGU-assisted scalar neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..simd.machine import CORE_I7, MachineDescription
from ..simd.pipeline import get_pipeline_options
from .harness import Variants, arithmetic_mean, resolve_benchmarks
from .tables import format_table

#: Baseline: macro-SIMDized, scalar strided tape accesses (§3.1) — the
#: "no-tape" named ablation pipeline.
_BASELINE_CONFIG = get_pipeline_options("no-tape")


@dataclass(frozen=True)
class Fig12Row:
    benchmark: str
    improvement_percent: float


@dataclass(frozen=True)
class Fig12Result:
    rows: tuple[Fig12Row, ...]

    @property
    def mean_percent(self) -> float:
        return arithmetic_mean([r.improvement_percent for r in self.rows])

    def render(self) -> str:
        body = [(r.benchmark, r.improvement_percent) for r in self.rows]
        body.append(("AVERAGE", self.mean_percent))
        return format_table(["benchmark", "SAGU improvement %"], body)


def run_fig12(machine: MachineDescription = CORE_I7,
              benchmarks: Optional[Sequence[str]] = None) -> Fig12Result:
    sagu_machine = machine.with_sagu()
    rows: List[Fig12Row] = []
    for name in resolve_benchmarks(benchmarks):
        base_variants = Variants(name, machine)
        sagu_variants = Variants(name, sagu_machine)
        without = base_variants.macro_cpo(_BASELINE_CONFIG)
        with_sagu = sagu_variants.macro_cpo()
        rows.append(Fig12Row(name, (without / with_sagu - 1.0) * 100.0))
    return Fig12Result(tuple(rows))


if __name__ == "__main__":  # pragma: no cover
    print(run_fig12().render())
