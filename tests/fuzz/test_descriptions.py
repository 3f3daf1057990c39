"""Unit tests for the fuzz description AST, generator, and materializer."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.fuzz.descriptions import (FilterDesc, ProgramDesc, SplitJoinDesc,
                                     desc_from_dict, desc_to_dict,
                                     materialize)
from repro.fuzz.generator import generate_program
from repro.graph.flatten import flatten
from repro.graph.validate import collect_problems
from repro.runtime import execute
from repro.schedule import build_schedule
from repro.simd.machine import CORE_I7


def _gen(seed: int, count: int):
    rng = random.Random(seed)
    return [generate_program(rng, index=i) for i in range(count)]


def test_generator_is_deterministic():
    assert _gen(42, 10) == _gen(42, 10)


def test_generator_seeds_differ():
    assert _gen(1, 5) != _gen(2, 5)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_programs_are_valid_and_runnable(seed):
    for desc in _gen(seed, 5):
        graph = flatten(materialize(desc))
        assert collect_problems(graph) == []
        result = execute(graph, build_schedule(graph), machine=CORE_I7,
                         iterations=1)
        assert result.outputs, desc


def test_json_roundtrip_exact():
    for desc in _gen(7, 20):
        assert desc_from_dict(desc_to_dict(desc)) == desc


def test_lcg_source_kind_serializes_and_ramp_form_is_unchanged():
    """Sources have kinds; the default ``ramp`` keeps the serialized form
    (so the content hash, so every stored corpus filename) it had before,
    and corpus entries written without a kind load as ramps."""
    from repro.fuzz.corpus import DEFAULT_CORPUS, desc_hash, load_corpus
    ramp = ProgramDesc(source_push=3)
    assert ramp.source_kind == "ramp"
    assert set(desc_to_dict(ramp)) == {
        "version", "name", "source_push", "source_dtype", "stages"}
    for path, desc in load_corpus(DEFAULT_CORPUS):
        assert path.name == f"repro_{desc_hash(desc)}.json"
    lcg = ProgramDesc(source_push=3, source_dtype="int",
                      source_lcg=(16807, 0, 2 ** 31 - 1, 1))
    data = desc_to_dict(lcg)
    assert lcg.source_kind == data["source_kind"] == "lcg"
    assert desc_from_dict(data) == lcg
    assert desc_hash(lcg) != desc_hash(replace(lcg, source_lcg=None))


@pytest.mark.parametrize("dtype", ["int", "float"])
@pytest.mark.parametrize("lcg", [
    (1103515245, 12345, 2 ** 31, 12345),    # glibc
    (16807, 0, 2 ** 31 - 1, 1),             # Park-Miller: m not 2**k
    (1, 7, 1000, 1003),                     # a = 1, seed >= m
    (5, 1, 2 ** 31 + 1, 88172645),          # m past the int64-exact limit
])
def test_lcg_source_materializes_the_recurrence(lcg, dtype):
    a, c, m, s = lcg
    desc = ProgramDesc(source_push=3, source_dtype=dtype, source_lcg=lcg)
    graph = flatten(materialize(desc))
    got = execute(graph, build_schedule(graph), machine=CORE_I7,
                  iterations=2).outputs
    want = []
    for _ in got:
        s = (s * a + c) % m
        want.append(s if dtype == "int" else float(s % 2000) / 1000.0 - 1.0)
    assert got == want and len(got) == 6
    assert {type(x) for x in got} == {int if dtype == "int" else float}


def test_roundtrip_preserves_materialized_outputs():
    desc = _gen(11, 1)[0]
    twin = desc_from_dict(desc_to_dict(desc))
    g1 = flatten(materialize(desc))
    g2 = flatten(materialize(twin))
    r1 = execute(g1, build_schedule(g1), machine=CORE_I7, iterations=2)
    r2 = execute(g2, build_schedule(g2), machine=CORE_I7, iterations=2)
    assert r1.outputs == r2.outputs


def test_filter_count_matches_flat_graph():
    from repro.graph.actor import FilterSpec
    for desc in _gen(5, 10):
        graph = flatten(materialize(desc))
        actual = sum(1 for a in graph.actors.values()
                     if isinstance(a.spec, FilterSpec))
        assert desc.filter_count() == actual, desc


def test_generator_covers_interesting_features():
    """Across a modest budget the generator must hit every description
    axis the ISSUE calls for."""
    descs = _gen(0, 60)
    kinds = set()
    saw_splitjoin = saw_roundrobin = saw_unequal = saw_int = False
    saw_horizontal_width = False

    def visit(stage):
        nonlocal saw_splitjoin, saw_roundrobin, saw_unequal
        nonlocal saw_horizontal_width
        if isinstance(stage, FilterDesc):
            kinds.add(stage.kind)
            return
        saw_splitjoin = True
        if stage.kind == "roundrobin":
            saw_roundrobin = True
        if len(set(stage.weights)) > 1:
            saw_unequal = True
        if len(stage.branches) in (4, 8) and len(set(stage.weights)) == 1:
            saw_horizontal_width = True
        for branch in stage.branches:
            for inner in branch:
                visit(inner)

    for desc in descs:
        if desc.source_dtype == "int":
            saw_int = True
        for stage in desc.stages:
            visit(stage)

    assert kinds >= {"map", "peeking", "stateful", "prework"}
    assert saw_splitjoin and saw_roundrobin and saw_unequal
    assert saw_int
    assert saw_horizontal_width
    # Source kinds: ramps and LCGs, the latter over every guard/refusal
    # corner the vector backend's state scan has.
    lcgs = [d.source_lcg for d in descs if d.source_lcg is not None]
    assert lcgs and len(lcgs) < len(descs)
    assert any(m == 2 ** 31 - 1 for _, _, m, _ in lcgs)    # not 2**k
    assert any(m == 2 ** 31 + 1 for _, _, m, _ in lcgs)    # build refusal
    assert any(a == 1 for a, _, _, _ in lcgs)
    assert any(c == 0 for _, c, _, _ in lcgs)
    assert any(s >= m for _, _, m, s in lcgs)              # guard → replay
    assert {d.source_dtype for d in descs if d.source_lcg} == \
        {"int", "float"}


def test_horizontal_candidates_actually_merge():
    """Isomorphic split-joins must trigger actual horizontal SIMDization
    somewhere in a small campaign (the generator's whole point)."""
    from repro.simd.pipeline import compile_graph
    hit = False
    for desc in _gen(0, 40):
        graph = flatten(materialize(desc))
        report = compile_graph(graph, CORE_I7).report
        if report.horizontal_splitjoins:
            hit = True
            break
    assert hit


def test_splitjoin_requires_two_branches():
    f = FilterDesc(name="x")
    with pytest.raises(ValueError):
        SplitJoinDesc(kind="duplicate", weights=(1,), branches=((f,),))


def test_materialize_appends_tail_after_splitjoin():
    f = FilterDesc(name="a")
    sj = SplitJoinDesc(kind="duplicate", weights=(1, 1),
                       branches=((f,), (FilterDesc(name="b"),)))
    desc = ProgramDesc(source_push=2, stages=(sj,))
    graph = flatten(materialize(desc))
    assert collect_problems(graph) == []
    # source + 2 branch filters + tail
    assert desc.filter_count() == 4
