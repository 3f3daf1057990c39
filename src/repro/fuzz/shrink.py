"""Deterministic greedy shrinker for diverging program descriptions.

Given a description that provokes a :class:`~repro.fuzz.harness.Divergence`
and a predicate that re-checks candidates, :func:`shrink` walks a fixed
menu of structural simplifications to a fixpoint, keeping every candidate
that *still fails* and discarding the rest:

1. **stage deletion** — drop whole pipeline stages (and, inside
   split-joins, whole branch stages);
2. **split-join collapse** — replace a split-join with one of its
   branches spliced into the pipeline, or drop branches down to two;
3. **rate reduction** — lower ``pop``/``push``/``peek_extra``/
   ``source_push`` and splitter weights toward 1, and demote an LCG
   source to the ramp;
4. **body simplification** — drop post-transform funcs, neutralize
   ``scale``/``offset``/``decay``, demote exotic kinds
   (``prework``/``stateful``/``peeking`` → ``map``), collapse int/float
   mixes to a single dtype.

All candidate edits derive joiner weights from branch ratios at
materialization time (see :mod:`repro.fuzz.descriptions`), so every
candidate is rate-consistent by construction; candidates that fail for a
*different* reason than the original divergence are still accepted — the
goal is a minimal failing input, not a minimal identical one.  The whole
process is deterministic: same input description + same predicate ⇒ same
minimized output.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, List, Optional, Tuple

from .descriptions import FilterDesc, ProgramDesc, SplitJoinDesc, StageDesc

#: Predicate: returns True when the candidate still exhibits the failure.
FailPredicate = Callable[[ProgramDesc], bool]

#: Safety valve — upper bound on predicate evaluations per shrink run.
MAX_EVALS = 400


def _simpler_filters(f: FilterDesc) -> Iterator[FilterDesc]:
    """Candidate one-step simplifications of a single filter, most
    aggressive first."""
    if f.kind != "map":
        yield replace(f, kind="map")
    if f.funcs:
        yield replace(f, funcs=())
        if len(f.funcs) > 1:
            yield replace(f, funcs=f.funcs[:1])
    if f.pop > 1:
        yield replace(f, pop=1)
        yield replace(f, pop=f.pop - 1)
    if f.push > 1:
        yield replace(f, push=1)
        yield replace(f, push=f.push - 1)
    if f.peek_extra > 1:
        yield replace(f, peek_extra=1)
    if f.scale not in (1, 1.0):
        yield replace(f, scale=1.0 if f.dtype == "float" else 1)
    if f.offset not in (0, 0.0):
        yield replace(f, offset=0.0 if f.out_dtype == "float" else 0)
    if f.decay != 0.5:
        yield replace(f, decay=0.5)
    if f.out_dtype != f.dtype:
        yield replace(f, out_dtype=f.dtype)


def _with_stage(stages: Tuple[StageDesc, ...], index: int,
                new: StageDesc) -> Tuple[StageDesc, ...]:
    return stages[:index] + (new,) + stages[index + 1:]


def _without_stage(stages: Tuple[StageDesc, ...],
                   index: int) -> Tuple[StageDesc, ...]:
    return stages[:index] + stages[index + 1:]


def _splitjoin_candidates(sj: SplitJoinDesc) -> Iterator[StageDesc]:
    """Smaller stand-ins for one split-join stage (still a single stage;
    branch *inlining* into the pipeline is handled by the caller)."""
    # Drop branches down to the minimum of two.
    if len(sj.branches) > 2:
        for i in range(len(sj.branches)):
            yield SplitJoinDesc(
                kind=sj.kind,
                weights=sj.weights[:i] + sj.weights[i + 1:],
                branches=sj.branches[:i] + sj.branches[i + 1:])
    # Uniform unit weights.
    if sj.kind == "roundrobin" and any(w != 1 for w in sj.weights):
        yield SplitJoinDesc(kind=sj.kind,
                            weights=(1,) * len(sj.weights),
                            branches=sj.branches)
    # Simplify branch contents.
    for bi, branch in enumerate(sj.branches):
        if len(branch) > 1:
            for si in range(len(branch)):
                nb = branch[:si] + branch[si + 1:]
                yield SplitJoinDesc(
                    kind=sj.kind, weights=sj.weights,
                    branches=sj.branches[:bi] + (nb,) + sj.branches[bi + 1:])
        for si, stage in enumerate(branch):
            inner: Iterator[StageDesc]
            if isinstance(stage, FilterDesc):
                inner = _simpler_filters(stage)
            else:
                inner = _splitjoin_candidates(stage)
            for cand in inner:
                nb = branch[:si] + (cand,) + branch[si + 1:]
                yield SplitJoinDesc(
                    kind=sj.kind, weights=sj.weights,
                    branches=sj.branches[:bi] + (nb,) + sj.branches[bi + 1:])


def _candidates(desc: ProgramDesc) -> Iterator[ProgramDesc]:
    """All one-step smaller descriptions, roughly best-first."""
    stages = desc.stages
    # 1. Delete whole stages (front-to-back so prefixes shrink first).
    for i in range(len(stages)):
        yield replace(desc, stages=_without_stage(stages, i))
    # 2. Collapse a split-join to one of its branches (spliced inline).
    for i, stage in enumerate(stages):
        if isinstance(stage, SplitJoinDesc):
            for branch in stage.branches:
                yield replace(
                    desc, stages=stages[:i] + branch + stages[i + 1:])
    # 3. Shrink the source.
    if desc.source_push > 1:
        yield replace(desc, source_push=1)
        yield replace(desc, source_push=desc.source_push - 1)
    if desc.source_lcg is not None:
        yield replace(desc, source_lcg=None)
    if desc.source_dtype != "float":
        yield replace(desc, source_dtype="float")
    # 4. Per-stage simplifications.
    for i, stage in enumerate(stages):
        if isinstance(stage, FilterDesc):
            for cand in _simpler_filters(stage):
                yield replace(desc, stages=_with_stage(stages, i, cand))
        else:
            for cand in _splitjoin_candidates(stage):
                yield replace(desc, stages=_with_stage(stages, i, cand))


def _size(desc: ProgramDesc) -> Tuple[int, int]:
    """Ordering key: (filter actors, serialized weight-ish complexity)."""
    complexity = desc.source_push + (desc.source_lcg is not None)

    def stage_cost(stage: StageDesc) -> int:
        if isinstance(stage, FilterDesc):
            cost = stage.pop + stage.push + stage.peek_extra
            cost += len(stage.funcs)
            cost += 0 if stage.kind == "map" else 1
            cost += 0 if stage.out_dtype == stage.dtype else 1
            return cost
        return sum(stage.weights) + sum(
            stage_cost(s) for b in stage.branches for s in b)

    complexity += sum(stage_cost(s) for s in desc.stages)
    return (desc.filter_count(), complexity)


def shrink(desc: ProgramDesc, still_fails: FailPredicate,
           *, max_evals: int = MAX_EVALS) -> ProgramDesc:
    """Greedily minimize ``desc`` while ``still_fails`` holds.

    Deterministic: candidates are generated in a fixed order and the
    first improving candidate restarts the pass (first-choice hill
    descent), iterated to a fixpoint or until ``max_evals`` predicate
    calls have been spent.
    """
    current = desc
    evals = 0
    improved = True
    while improved and evals < max_evals:
        improved = False
        for cand in _candidates(current):
            if _size(cand) >= _size(current):
                continue
            evals += 1
            ok = False
            try:
                ok = still_fails(cand)
            except Exception:
                ok = False  # predicate crashes are treated as "not failing"
            if ok:
                current = cand
                improved = True
                break
            if evals >= max_evals:
                break
    return replace(current, name=desc.name)
