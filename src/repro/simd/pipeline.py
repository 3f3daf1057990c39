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

Each phase is one module-level function over a private
:class:`_Compilation` state; :func:`compile_graph` walks the
``(name, function)`` table :data:`_PHASES` in that order, one ``"pass"``
trace span per phase, and :data:`PASS_NAMES` is read off the same table.
Ablations are named option presets (:data:`PIPELINES`): ``"single-only"``
is Figure 11's configuration, ``"no-tape"`` Figure 12's baseline.  A
disabled technique still runs its phase (as a no-op), so every compile
trace carries the same eight spans.

``compile_graph`` returns the transformed graph plus a
:class:`CompilationReport` recording every decision, which the tests pin
against the paper's running example and the experiments dump for
inspection.
"""

from __future__ import annotations

import difflib
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..graph.stream_graph import StreamGraph
from ..graph.validate import verify_invariants
from ..obs.tracer import Tracer, ensure_tracer
from ..schedule.rates import repetition_vector
from ..schedule.scaling import simd_scaling_factor
from .analysis import Verdict, simdizable_filters
from .horizontal import MergeConflict, apply_horizontal
from .machine import CORE_I7, MachineDescription
from .segments import (
    HorizontalCandidate,
    find_horizontal_candidates,
    find_vertical_segments,
)
from .single_actor import vectorize_actor
from .tape_opt import optimize_tapes
from .technique_choice import prefer_horizontal
from .vertical import fuse_segment


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


@dataclass
class _Compilation:
    """What the phases of one :func:`compile_graph` call share: the work
    graph they rewrite in place, the report they fill in, and the
    hand-offs from one phase to the next."""

    work: StreamGraph
    machine: MachineDescription
    options: MacroSSOptions
    report: CompilationReport
    #: actor id -> core, when a multicore partition constrains compilation.
    partition: Optional[Dict[int, int]]
    core_of: Dict[int, int]
    #: prepass.analysis: actor id -> SIMDizability verdict.
    verdicts: Dict[int, Verdict] = field(default_factory=dict)
    #: segments.horizontal: surviving split-join candidates.
    candidates: List[HorizontalCandidate] = field(default_factory=list)
    #: segments.horizontal: actor ids claimed by a horizontal candidate.
    claimed_by_horizontal: Set[int] = field(default_factory=set)
    #: segments.vertical: maximal vertical segments (lists of actor ids).
    segments: List[List[int]] = field(default_factory=list)
    #: vertical.fuse: (actor id, "vertical" | "single") pending
    #: single-actor vectorization.
    simdized_ids: List[Tuple[int, str]] = field(default_factory=list)


def _prepass_analysis(c: _Compilation) -> Dict[str, Any]:
    """Phase 1: per-filter SIMDizability verdicts (+ feedback-cycle veto)."""
    verdicts = simdizable_filters(c.work, c.machine)
    # Actors inside feedback cycles stay scalar: SIMDizing them would
    # multiply their blocking factor by SW and starve the loop's delays.
    for actor_id in c.work.actors_on_cycles():
        if actor_id in verdicts and verdicts[actor_id].simdizable:
            verdicts[actor_id] = Verdict.no("inside a feedback loop")
    c.verdicts = verdicts
    c.report.verdicts = {c.work.actors[aid].name: verdict
                         for aid, verdict in verdicts.items()}
    simdizable = sum(1 for v in verdicts.values() if v.simdizable)
    return {"detail": f"{simdizable}/{len(verdicts)} filters SIMDizable"}


def _horizontal_segments(c: _Compilation) -> Dict[str, Any]:
    """Phase 2a: find split-join candidates for horizontal SIMDization and
    arbitrate vertical/horizontal overlaps through the cost model (§3.5)."""
    work, report = c.work, c.report
    candidates: List[HorizontalCandidate] = []
    if c.options.horizontal:
        candidates = find_horizontal_candidates(work, c.machine)
        cyclic = work.actors_on_cycles()
        if cyclic:
            candidates = [cand for cand in candidates
                          if not (cand.all_actor_ids() & cyclic)]
        if c.partition is not None:
            candidates = [
                cand for cand in candidates
                if len({c.partition[aid] for aid in cand.all_actor_ids()
                        | {cand.splitter_id, cand.joiner_id}}) == 1]
        if c.options.vertical:
            # §3.5: actors in both GV and GH — the cost model decides which
            # technique each overlapping split-join gets.
            base_reps = repetition_vector(work)
            arbitrated = []
            for cand in candidates:
                if prefer_horizontal(work, cand, base_reps, c.machine):
                    arbitrated.append(cand)
                else:
                    names = [work.actors[a].name
                             for b in cand.branches for a in b]
                    report.skipped_horizontal.append(
                        f"{'/'.join(names)}: cost model chose vertical")
            candidates = arbitrated
        for cand in candidates:
            c.claimed_by_horizontal |= cand.all_actor_ids()
    c.candidates = candidates
    return {"detail": f"{len(candidates)} candidate(s), "
                      f"{len(report.skipped_horizontal)} skipped"}


def _vertical_segments(c: _Compilation) -> Dict[str, Any]:
    """Phase 2b: maximal vertical pipelines over the unclaimed actors, and
    scalar-decision bookkeeping for non-SIMDizable filters."""
    segments: List[List[int]] = []
    if c.options.single_actor:
        segments = find_vertical_segments(
            c.work, c.verdicts, exclude=c.claimed_by_horizontal,
            same_group=c.partition)
        if not c.options.vertical:
            segments = [[aid] for segment in segments for aid in segment]
    c.segments = segments
    # Record why non-SIMDizable filters stay scalar.
    for aid, verdict in c.verdicts.items():
        if not verdict.simdizable and aid not in c.claimed_by_horizontal:
            c.report.decisions[c.work.actors[aid].name] = \
                "scalar:" + "; ".join(verdict.reasons)
    return {"detail": f"{len(segments)} segment(s)"}


def _vertical_fuse(c: _Compilation) -> Dict[str, Any]:
    """Phase 3a: fuse multi-actor vertical segments into coarse actors."""
    work, report = c.work, c.report
    reps = repetition_vector(work)
    for segment in c.segments:
        names = [work.actors[aid].name for aid in segment]
        if len(segment) >= 2:
            coarse_id = fuse_segment(work, segment, reps)
            if c.partition is not None:
                c.core_of[coarse_id] = c.core_of[segment[0]]
            report.vertical_segments.append(names)
            coarse_name = work.actors[coarse_id].name
            for name in names:
                report.decisions[name] = f"vertical:{coarse_name}"
            c.simdized_ids.append((coarse_id, "vertical"))
        else:
            report.decisions[names[0]] = "single"
            c.simdized_ids.append((segment[0], "single"))
    return {"detail": f"{len(report.vertical_segments)} segment(s) fused"}


def _repetition_adjust(c: _Compilation) -> Dict[str, Any]:
    """Phase 3b: Equation (1) — the factor M the repetition vector must be
    scaled by so every SIMDizable actor's repetition is a multiple of SW.

    Recomputing the repetition vector after vectorization applies it
    implicitly (the vectorized rates force it); M is recorded for
    reporting and tests.
    """
    reps_after_fusion = repetition_vector(c.work)
    c.report.scaling_factor = simd_scaling_factor(
        c.machine.simd_width, reps_after_fusion,
        [aid for aid, _ in c.simdized_ids])
    return {"detail": f"M={c.report.scaling_factor}",
            "scaling_factor": c.report.scaling_factor,
            "steady_reps": sum(reps_after_fusion.values())}


def _single_actor_vectorize(c: _Compilation) -> Dict[str, Any]:
    """Phase 4: single-actor SIMDization of standalone and coarse actors."""
    for actor_id, _kind in c.simdized_ids:
        actor = c.work.actors[actor_id]
        actor.spec = vectorize_actor(actor.spec, c.machine.simd_width)
    return {"detail": f"{len(c.simdized_ids)} actor(s) vectorized"}


def _horizontal_apply(c: _Compilation) -> Dict[str, Any]:
    """Phase 5: horizontally SIMDize the surviving split-join candidates."""
    work, report = c.work, c.report
    for cand in c.candidates:
        flat_names = [work.actors[aid].name
                      for branch in cand.branches for aid in branch]
        before = set(work.actors)
        try:
            apply_horizontal(work, cand, c.machine)
        except MergeConflict as exc:
            report.skipped_horizontal.append(
                f"{'/'.join(flat_names)}: {exc}")
            for name in flat_names:
                report.decisions[name] = \
                    f"scalar:horizontal merge failed ({exc})"
            continue
        if c.partition is not None:
            region_core = c.core_of[cand.splitter_id]
            for new_id in set(work.actors) - before:
                c.core_of[new_id] = region_core
        report.horizontal_splitjoins.append(flat_names)
        for name in flat_names:
            report.decisions[name] = "horizontal"
    return {"detail": f"{len(report.horizontal_splitjoins)} "
                      f"split-join(s) merged"}


def _tape_optimize(c: _Compilation) -> Dict[str, Any]:
    """Phase 6: per-boundary tape strategy selection (§3.4)."""
    if c.options.tape_optimization:
        c.report.tape_strategies = optimize_tapes(c.work, c.machine)
    return {"detail": f"{len(c.report.tape_strategies)} tape(s) optimized"}


#: Algorithm 1, in driver order: (pass name, phase).
_PHASES: Tuple[Tuple[str, Callable[[_Compilation], Dict[str, Any]]], ...] = (
    ("prepass.analysis", _prepass_analysis),
    ("segments.horizontal", _horizontal_segments),
    ("segments.vertical", _vertical_segments),
    ("vertical.fuse", _vertical_fuse),
    ("repetition.adjust", _repetition_adjust),
    ("single_actor.vectorize", _single_actor_vectorize),
    ("horizontal.apply", _horizontal_apply),
    ("tape.optimize", _tape_optimize),
)

#: Algorithm-1 pass names, in driver order.  Pass spans in a compile trace
#: use exactly these names (category ``"pass"``).
PASS_NAMES: Tuple[str, ...] = tuple(name for name, _ in _PHASES)


def compile_graph(graph: StreamGraph,
                  machine: MachineDescription = CORE_I7,
                  options: Optional[MacroSSOptions] = None,
                  partition: Optional[Dict[int, int]] = None,
                  *,
                  tracer: Optional[Tracer] = None,
                  pipeline: Optional[str] = None,
                  verify_each_pass: bool = False
                  ) -> CompiledGraph:
    """Run macro-SIMDization on a flat graph (non-destructive).

    ``partition`` maps actor ids to cores; when given, SIMDization is
    restricted to same-core segments/split-joins (the partition-first
    scheduler of §5) and the result carries the per-actor core assignment.

    ``tracer`` records one span per Algorithm-1 pass (wall time,
    before/after graph stats, decisions taken); it defaults to a no-op.

    ``pipeline`` names an ablation preset from :data:`PIPELINES`
    (``"scalar"``, ``"single-only"``, ``"no-tape"``, ``"full"``, …); it
    *overrides* ``options``.  Unknown names raise :class:`KeyError` with a
    did-you-mean.

    ``verify_each_pass`` re-validates the work graph (structure, balanced
    positive repetition vector, live tape endpoints) after every pass and
    raises :class:`repro.graph.stream_graph.GraphError` naming the pass
    that broke it.
    """
    if pipeline is not None:
        options = get_pipeline_options(pipeline)
    if options is None:
        # ``MacroSSOptions`` is a frozen preset, so a shared default would
        # be harmless today — but a ``None`` default keeps the signature
        # honest (no instance shared across calls) and is pinned by the
        # mutable-default regression tests.
        options = MacroSSOptions()

    tracer = ensure_tracer(tracer)
    work = graph.clone()
    report = CompilationReport(machine=machine.name, options=options)
    state = _Compilation(work=work, machine=machine, options=options,
                         report=report, partition=partition,
                         core_of=dict(partition or {}))

    with tracer.span("compile_graph", cat="driver", graph=graph.name,
                     machine=machine.name, simd_width=machine.simd_width,
                     options=asdict(options)) as compile_span:
        for name, phase in _PHASES:
            with tracer.span(name, cat="pass",
                             actors_before=len(work.actors),
                             tapes_before=len(work.tapes)) as span:
                extra = phase(state)
                span.add(actors_after=len(work.actors),
                         tapes_after=len(work.tapes), **extra)
                if verify_each_pass:
                    verify_invariants(work, f"after pass {name!r}")
        if partition is not None:
            state.core_of = {aid: core for aid, core in state.core_of.items()
                             if aid in work.actors}
        compile_span.add(decisions=len(report.decisions),
                         scaling_factor=report.scaling_factor)
    return CompiledGraph(work, report, state.core_of)
