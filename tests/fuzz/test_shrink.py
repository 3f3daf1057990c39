"""Unit tests for the deterministic greedy shrinker."""

from __future__ import annotations

import random

from repro.fuzz.descriptions import FilterDesc, ProgramDesc, SplitJoinDesc
from repro.fuzz.generator import generate_program
from repro.fuzz.shrink import _size, shrink


def _big_desc() -> ProgramDesc:
    branch_a = (FilterDesc(name="a1", kind="stateful", pop=2, push=2,
                           scale=1.5, funcs=("abs",)),)
    branch_b = (FilterDesc(name="b1", kind="map", pop=2, push=2, scale=2.0),)
    sj = SplitJoinDesc(kind="roundrobin", weights=(2, 3),
                       branches=(branch_a, branch_b))
    tail = FilterDesc(name="t", kind="peeking", pop=3, push=2, peek_extra=2,
                      scale=-1.5, offset=0.5, funcs=("sin", "floor"))
    return ProgramDesc(source_push=5, stages=(sj, tail), name="big")


def test_shrink_to_trivial_when_everything_fails():
    """With an always-true predicate the fixpoint is the minimal program."""
    result = shrink(_big_desc(), lambda d: True)
    assert result.filter_count() <= 2  # source (+ maybe one stage)
    assert result.source_push == 1


def test_shrink_demotes_lcg_source_to_ramp():
    """lcg → ramp is a shrink step: taken when the failure does not need
    the recurrence, kept when it does."""
    from dataclasses import replace
    desc = replace(_big_desc(), source_lcg=(16807, 0, 2 ** 31 - 1, 1))
    assert shrink(desc, lambda d: True).source_lcg is None
    kept = shrink(desc, lambda d: d.source_lcg is not None)
    assert kept.source_lcg == desc.source_lcg and not kept.stages


def test_shrink_noop_when_nothing_else_fails():
    """A predicate pinned to the original accepts no candidate."""
    original = _big_desc()
    result = shrink(original, lambda d: d == original)
    assert result == original


def test_shrink_preserves_failure_property():
    """Shrinking against 'contains a peeking filter' keeps one."""

    def has_peeking(desc: ProgramDesc) -> bool:
        def check(stage) -> bool:
            if isinstance(stage, FilterDesc):
                return stage.kind == "peeking"
            return any(check(s) for b in stage.branches for s in b)
        return any(check(s) for s in desc.stages)

    result = shrink(_big_desc(), has_peeking)
    assert has_peeking(result)
    assert result.filter_count() <= 2


def test_shrink_is_deterministic():
    rng = random.Random(13)
    desc = generate_program(rng, index=0, max_stages=4)
    pred = lambda d: True  # noqa: E731
    assert shrink(desc, pred) == shrink(desc, pred)


def test_shrink_never_increases_size():
    desc = _big_desc()
    result = shrink(desc, lambda d: True)
    assert _size(result) <= _size(desc)


def test_shrink_respects_eval_budget():
    calls = []

    def pred(d: ProgramDesc) -> bool:
        calls.append(d)
        return False

    shrink(_big_desc(), pred, max_evals=5)
    assert len(calls) <= 5


def test_shrink_collapses_splitjoin_to_branch():
    """A failure inside one branch shrinks the split-join away entirely."""

    def has_stateful(desc: ProgramDesc) -> bool:
        def check(stage) -> bool:
            if isinstance(stage, FilterDesc):
                return stage.kind == "stateful"
            return any(check(s) for b in stage.branches for s in b)
        return any(check(s) for s in desc.stages)

    result = shrink(_big_desc(), has_stateful)
    assert has_stateful(result)
    # The split-join should be gone: its stateful branch got inlined.
    assert all(isinstance(s, FilterDesc) for s in result.stages)
