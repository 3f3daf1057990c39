"""Golden fingerprints of every compile decision.

Each configuration (app × registered target × named pipeline) is compiled
and reduced to one hash over what the compiler decided: every actor's spec
(rates, state, init and work bodies), every tape edge (endpoints, element
type, vector width, lane order) and the report (verdicts, per-actor
decisions, segments, skipped split-joins, tape strategies, scaling
factor).  A refactor of the SIMDizers or the cost model that claims to
move no decision proves it by leaving this file unchanged.  After an
intentional change, refresh the snapshot with::

    pytest tests/simd/test_compile_fingerprint.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.registry import BENCHMARKS, _populate
from repro.experiments.harness import scalar_graph
from repro.simd import compile_graph, get_target, list_pipelines, list_targets

GOLDEN = Path(__file__).parent / "golden" / "compile_fingerprints.json"


def _fingerprint(app: str, target: str, pipeline: str) -> str:
    try:
        compiled = compile_graph(scalar_graph(app), get_target(target),
                                 pipeline=pipeline)
    except Exception as exc:  # a refused compile is a decision too
        return f"error:{type(exc).__name__}"
    graph, report = compiled.graph, compiled.report
    parts = [repr((actor.name, actor.spec))
             for _, actor in sorted(graph.actors.items())]
    parts += [repr((t.src, t.src_port, t.dst, t.dst_port, t.data_type,
                    t.vector_width, t.lane_ordered, t.initial))
              for _, t in sorted(graph.tapes.items())]
    parts.append(repr((sorted(report.verdicts.items()),
                       sorted(report.decisions.items()),
                       report.vertical_segments,
                       report.horizontal_splitjoins,
                       report.skipped_horizontal,
                       sorted(report.tape_strategies.items()),
                       report.scaling_factor)))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _current() -> dict:
    _populate()
    return {f"{app}|{target}|{pipeline}": _fingerprint(app, target, pipeline)
            for app in sorted(BENCHMARKS)
            for target in list_targets()
            for pipeline in list_pipelines()}


def test_compile_decisions_match_golden(update_golden):
    current = _current()
    if update_golden:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True)
                          + "\n", encoding="utf-8")
        pytest.skip(f"updated {GOLDEN}")
    assert GOLDEN.is_file(), (
        f"missing golden {GOLDEN}; create it with pytest --update-golden")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    differing = sorted(key for key in golden.keys() | current.keys()
                       if golden.get(key) != current.get(key))
    assert not differing, (
        f"{len(differing)} of {len(golden)} compile configs differ from the "
        f"golden (refresh with --update-golden if intended):\n  "
        + "\n  ".join(differing))
