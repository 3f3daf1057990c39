"""The emitted C++ is C++: every app's scalar and ``full`` graph compiles.

Each graph is emitted for core-i7-sse4 and checked with
``g++ -O2 -msse4.2 -std=c++17 -fsyntax-only``.  The only errors allowed
are the SVML math intrinsics (ICC-only) the emitter still calls on three
SIMDized graphs; anything else — a vector local initialised from a
scalar, an undeclared helper, a type mismatch — fails the test.  Skips
where there is no ``g++`` or it cannot target SSE4.2.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess

import pytest

from repro.apps.registry import BENCHMARKS
from repro.codegen import emit_cpp
from repro.experiments.harness import scalar_graph
from repro.simd import compile_graph
from repro.simd.machine import CORE_I7

GXX = shutil.which("g++")
FLAGS = ("-O2", "-msse4.2", "-std=c++17", "-fsyntax-only", "-x", "c++", "-")

#: SVML intrinsics g++ does not declare, by (app, graph).
SVML = {
    ("MP3Decoder", "full"): {"_mm_pow_ps"},
    ("RunningExample", "full"): {"_mm_cos_ps", "_mm_sin_ps"},
    ("Vocoder", "full"): {"_mm_cos_ps"},
}

_UNDECLARED = re.compile(r"error: '(\w+)' was not declared in this scope")


def _gxx(source: str) -> subprocess.CompletedProcess:
    return subprocess.run([GXX, *FLAGS], input=source, capture_output=True,
                          text=True, env={**os.environ, "LC_ALL": "C"},
                          timeout=120)


@pytest.fixture(scope="module", autouse=True)
def _gxx_targets_sse4_2():
    if GXX is None or _gxx("#include <nmmintrin.h>\n").returncode != 0:
        pytest.skip("needs g++ targeting SSE4.2")


@pytest.mark.parametrize("graph", ["scalar", "full"])
@pytest.mark.parametrize("app", sorted(BENCHMARKS))
def test_emitted_cpp_compiles(app, graph):
    g = scalar_graph(app)
    if graph == "full":
        g = compile_graph(g, CORE_I7).graph
    result = _gxx(emit_cpp(g, CORE_I7))
    errors = [line for line in result.stderr.splitlines()
              if "error:" in line]
    undeclared = {m.group(1) for m in map(_UNDECLARED.search, errors) if m}
    others = [line for line in errors if not _UNDECLARED.search(line)]
    assert not others, "\n".join(others)
    assert undeclared == SVML.get((app, graph), set()), result.stderr
    assert (result.returncode == 0) == (not errors)
