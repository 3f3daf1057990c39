"""The MacroSS compilation driver (Algorithm 1).

Phases, in the paper's order:

1. prepass scheduling (steady-state repetition vector);
2. identify vectorizable segments — horizontal split-join candidates first
   (they may contain stateful actors no other technique handles), then
   maximal vertical pipelines over the remaining actors;
3. adjust repetition numbers (Equation (1)) and vertically fuse;
4. single-actor SIMDize every fused/standalone SIMDizable actor;
5. horizontally SIMDize the candidate split-joins;
6. optimize tape boundaries (permutations / SAGU);
7. (code generation lives in :mod:`repro.codegen`).

Since the pass-manager refactor the driver is *data*: each phase is a
:class:`repro.passes.Pass` class (see :mod:`repro.passes.algorithm1`) and
:func:`compile_graph` is a thin wrapper that compiles
:class:`MacroSSOptions` into a :class:`repro.passes.PassManager` pipeline
and runs it over a shared :class:`repro.passes.CompilationContext`.
Ablations are named pipelines (:data:`PIPELINES`): ``"single-only"`` is
Figure 11's configuration, ``"no-tape"`` Figure 12's baseline, and custom
pipelines can reorder, drop, or inject passes
(``compile_graph(..., pipeline=["prepass.analysis", "tape.optimize"])``).

``compile_graph`` returns the transformed graph plus a
:class:`CompilationReport` recording every decision, which the tests pin
against the paper's running example and the experiments dump for
inspection.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graph.stream_graph import StreamGraph
from ..obs.tracer import Tracer, ensure_tracer
from ..passes.base import PassHook
from .analysis import Verdict
from .machine import CORE_I7, MachineDescription


@dataclass(frozen=True)
class MacroSSOptions:
    """Feature toggles for ablation experiments.

    The default configuration is the full MacroSS of the paper; Figure 11
    disables ``vertical`` (single-actor only), Figure 12 toggles the
    machine's SAGU, the scalar baseline disables everything.  Each named
    entry of :data:`PIPELINES` is one of these presets.
    """

    single_actor: bool = True
    vertical: bool = True
    horizontal: bool = True
    tape_optimization: bool = True


@dataclass
class CompilationReport:
    """What MacroSS decided, per actor and pass."""

    machine: str
    options: MacroSSOptions
    verdicts: Dict[str, Verdict] = field(default_factory=dict)
    #: actor name -> one of "vertical:<coarse>", "single", "horizontal",
    #: "scalar:<reason>"
    decisions: Dict[str, str] = field(default_factory=dict)
    vertical_segments: List[List[str]] = field(default_factory=list)
    horizontal_splitjoins: List[List[str]] = field(default_factory=list)
    skipped_horizontal: List[str] = field(default_factory=list)
    tape_strategies: Dict[str, str] = field(default_factory=dict)
    #: Equation (1) scaling factor applied to the repetition vector.
    scaling_factor: int = 1

    def summary(self) -> str:
        lines = [f"MacroSS report ({self.machine}):",
                 f"  Equation (1) scaling factor M = {self.scaling_factor}"]
        for name, decision in sorted(self.decisions.items()):
            lines.append(f"  {name}: {decision}")
        for boundary, strategy in sorted(self.tape_strategies.items()):
            lines.append(f"  tape {boundary}: {strategy}")
        return "\n".join(lines)


@dataclass
class CompiledGraph:
    graph: StreamGraph
    report: CompilationReport
    #: core assignment of every actor of the compiled graph, when a
    #: multicore partition constrained the compilation (else empty).
    core_assignment: Dict[int, int] = field(default_factory=dict)


#: Algorithm-1 pass names, in driver order.  Pass spans in a compile trace
#: use exactly these names (category ``"pass"``), and ``pass_hook`` is
#: invoked once per name with the work graph at that pass boundary.
PASS_NAMES: Tuple[str, ...] = (
    "prepass.analysis",
    "segments.horizontal",
    "segments.vertical",
    "vertical.fuse",
    "repetition.adjust",
    "single_actor.vectorize",
    "horizontal.apply",
    "tape.optimize",
)


#: Options preset for the plain (non-SIMDized) baseline.
SCALAR_OPTIONS = MacroSSOptions(single_actor=False, vertical=False,
                                horizontal=False, tape_optimization=False)

#: Options preset for Figure 11's single-actor-only configuration.
SINGLE_ACTOR_ONLY = MacroSSOptions(vertical=False)


#: Named ablation pipelines: every figure configuration that used to be
#: boolean plumbing, addressable by name (``compile_graph(...,
#: pipeline="single-only")``, CLI ``--pipeline``, the CI ablation smoke).
PIPELINES: Dict[str, MacroSSOptions] = {
    # full MacroSS (the paper's default).
    "full": MacroSSOptions(),
    # no SIMDization at all — the scalar baseline.
    "scalar": SCALAR_OPTIONS,
    # Figure 11: single-actor only (vertical fusion disabled).
    "single-only": SINGLE_ACTOR_ONLY,
    # Figure 12 baseline: SIMDized with §3.1 scalar strided tape accesses.
    "no-tape": MacroSSOptions(tape_optimization=False),
    # Figure 11's measured baseline (single-actor, raw tape accesses);
    # its comparison side is "no-tape" with vertical fusion on.
    "single-only/no-tape": MacroSSOptions(vertical=False,
                                          tape_optimization=False),
    # technique isolation, mirroring the fuzz harness's option axis.
    "vertical-only": MacroSSOptions(horizontal=False),
    "horizontal-only": MacroSSOptions(single_actor=False, vertical=False),
}


def get_pipeline_options(name: str) -> MacroSSOptions:
    """Resolve a named pipeline to its options preset (did-you-mean on
    unknown names)."""
    try:
        return PIPELINES[name]
    except KeyError:
        close = difflib.get_close_matches(name, PIPELINES, n=1)
        hint = f" — did you mean {close[0]!r}?" if close else ""
        raise KeyError(
            f"unknown pipeline {name!r}{hint} (named pipelines: "
            f"{', '.join(PIPELINES)})") from None


def list_pipelines() -> List[str]:
    """Names of the registered ablation pipelines, in definition order."""
    return list(PIPELINES)


def compile_graph(graph: StreamGraph,
                  machine: MachineDescription = CORE_I7,
                  options: Optional[MacroSSOptions] = None,
                  partition: Optional[Dict[int, int]] = None,
                  *,
                  tracer: Optional[Tracer] = None,
                  pass_hook: Optional[PassHook] = None,
                  pipeline=None,
                  verify_each_pass: bool = False
                  ) -> CompiledGraph:
    """Run macro-SIMDization on a flat graph (non-destructive).

    ``partition`` maps actor ids to cores; when given, SIMDization is
    restricted to same-core segments/split-joins (the partition-first
    scheduler of §5) and the result carries the per-actor core assignment.

    ``tracer`` records one span per Algorithm-1 pass (wall time,
    before/after graph stats, decisions taken); ``pass_hook`` is called
    after every pass with the work graph — the hook the pass-invariant
    tests and debugging tools attach to.  Both default to no-ops.

    ``pipeline`` selects what runs:

    * ``None`` — the standard eight Algorithm-1 passes gated by
      ``options`` (the pre-refactor behaviour);
    * a **name** from :data:`PIPELINES` (``"scalar"``, ``"single-only"``,
      ``"no-tape"``, ``"full"``, …) — the named ablation preset
      *overrides* ``options``;
    * a **sequence** of pass names and/or :class:`repro.passes.Pass`
      instances — a custom pipeline, run in the given order;
    * a :class:`repro.passes.PassManager` — used as-is.

    ``verify_each_pass`` re-validates the work graph (structure, balanced
    positive repetition vector, live tape endpoints) after every pass and
    raises :class:`repro.passes.PassVerificationError` naming the pass
    that broke it.
    """
    # Lazy import: repro.passes imports this module's types for context
    # annotations; deferring breaks the cycle for either import order.
    from ..passes.base import CompilationContext
    from ..passes.manager import PassManager

    if isinstance(pipeline, str):
        options = get_pipeline_options(pipeline)
        manager = PassManager.default()
    elif pipeline is None:
        manager = PassManager.default()
    else:
        manager = PassManager.coerce(pipeline)
    if options is None:
        # ``MacroSSOptions`` is a frozen preset, so a shared default would
        # be harmless today — but a ``None`` default keeps the signature
        # honest (no instance shared across calls) and is pinned by the
        # mutable-default regression tests.
        options = MacroSSOptions()

    tracer = ensure_tracer(tracer)
    work = graph.clone()
    report = CompilationReport(machine=machine.name, options=options)
    ctx = CompilationContext(
        source=graph, work=work, machine=machine, options=options,
        report=report, tracer=tracer, partition=partition,
        core_of=dict(partition or {}), pass_hook=pass_hook)

    with tracer.span("compile_graph", cat="driver", graph=graph.name,
                     machine=machine.name, simd_width=machine.simd_width,
                     options={k: getattr(options, k) for k in
                              ("single_actor", "vertical", "horizontal",
                               "tape_optimization")}) as compile_span:
        manager.run(ctx, verify_each_pass=verify_each_pass)
        if partition is not None:
            ctx.core_of = {aid: core for aid, core in ctx.core_of.items()
                           if aid in work.actors}
        compile_span.add(decisions=len(report.decisions),
                         scaling_factor=report.scaling_factor)
    return CompiledGraph(work, report, ctx.core_of)
