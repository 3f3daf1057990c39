"""Macro-SIMDization: MacroSS's analyses, transformations, and driver."""

from .analysis import (Verdict, analyze_filter, expr_is_vector, is_stateful,
                       simdizable_filters)
from .cost_model import (
    StrategyCost,
    best_gather_strategy,
    estimate_body_events,
    estimate_firing_cycles,
    gather_strategy_costs,
)
from .horizontal import MergeConflict, apply_horizontal, merge_specs
from .isomorphism import all_isomorphic, spec_signature, specs_isomorphic
from .machine import (
    CORE_I7,
    CORE_I7_SAGU,
    NEON_LIKE,
    SVE_LIKE,
    MachineDescription,
    UnknownTargetError,
    UnsupportedOperation,
    get_target,
    list_targets,
    register_target,
    target_aliases,
    wide_machine,
)
from .pipeline import (
    PASS_NAMES,
    PIPELINES,
    SCALAR_OPTIONS,
    SINGLE_ACTOR_ONLY,
    CompilationReport,
    CompiledGraph,
    MacroSSOptions,
    compile_graph,
    get_pipeline_options,
    list_pipelines,
)
from .sagu import SAGU, lane_ordered_layout, software_address
from .segments import (
    HorizontalCandidate,
    find_horizontal_candidates,
    find_vertical_segments,
    horizontal_verdict,
)
from .single_actor import vectorize_actor
from .tape_opt import optimize_tapes, uses_gather, uses_scatter
from .vertical import FusionError, fuse_segment, fuse_specs, inner_repetitions

__all__ = [
    "Verdict", "analyze_filter", "is_stateful", "simdizable_filters",
    "StrategyCost", "best_gather_strategy", "estimate_body_events",
    "estimate_firing_cycles", "gather_strategy_costs",
    "MergeConflict", "apply_horizontal", "merge_specs",
    "all_isomorphic", "spec_signature", "specs_isomorphic",
    "CORE_I7", "CORE_I7_SAGU", "NEON_LIKE", "SVE_LIKE",
    "MachineDescription", "UnknownTargetError", "UnsupportedOperation",
    "get_target", "list_targets", "register_target", "target_aliases",
    "wide_machine",
    "PASS_NAMES", "PIPELINES", "SCALAR_OPTIONS", "SINGLE_ACTOR_ONLY",
    "CompilationReport", "CompiledGraph", "MacroSSOptions", "compile_graph",
    "get_pipeline_options", "list_pipelines",
    "SAGU", "lane_ordered_layout", "software_address",
    "HorizontalCandidate", "find_horizontal_candidates",
    "find_vertical_segments", "horizontal_verdict",
    "expr_is_vector", "vectorize_actor",
    "optimize_tapes", "uses_gather", "uses_scatter",
    "FusionError", "fuse_segment", "fuse_specs", "inner_repetitions",
]
