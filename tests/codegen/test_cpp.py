"""Structural tests for the C++ + SSE intrinsics emitter."""

import pytest

from repro.apps import get_benchmark
from repro.cli import main
from repro.codegen import UnsupportedCodegenTarget, emit_cpp
from repro.graph import StreamGraph, flatten
from repro.graph.builtins import HJoinerSpec, HSplitterSpec, SplitKind
from repro.simd import compile_graph
from repro.simd.machine import CORE_I7, CORE_I7_SAGU, GPU_LIKE

from ..conftest import linear_program, make_pair_sum, make_ramp_source, make_scaler


@pytest.fixture(scope="module")
def running_example_cpp():
    graph = flatten(get_benchmark("RunningExample"))
    compiled = compile_graph(graph, CORE_I7)
    return emit_cpp(compiled.graph, CORE_I7)


class TestStructure:
    def test_preamble(self, running_example_cpp):
        assert "#include <xmmintrin.h>" in running_example_cpp
        assert "template <typename T, int CAP> struct Tape" in running_example_cpp

    def test_one_struct_per_filter(self, running_example_cpp):
        for name in ("struct A {", "struct B_h {", "struct C_h {",
                     "struct _3D_2E {", "struct F {", "struct G {",
                     "struct H {"):
            assert name in running_example_cpp

    def test_steady_loop(self, running_example_cpp):
        assert "int main()" in running_example_cpp
        assert "for (long it = 0; it <" in running_example_cpp

    def test_vector_tapes_typed_m128(self, running_example_cpp):
        assert "Tape<__m128" in running_example_cpp

    def test_horizontal_movers_emitted(self, running_example_cpp):
        assert "hsplitter_work" in running_example_cpp
        assert "hjoiner_work" in running_example_cpp

    def test_strided_packing_idiom(self, running_example_cpp):
        """Figure 3b's set_ps-of-peeks packing must appear."""
        assert "_mm_set_ps(" in running_example_cpp
        assert ".rpush(_lane(" in running_example_cpp

    def test_permute_helpers_emitted_for_pow2_strides(self,
                                                      running_example_cpp):
        assert "extract_even" in running_example_cpp
        assert "extract_odd" in running_example_cpp

    def test_vector_constants(self, running_example_cpp):
        """The {5,6,7,8} divisor vector of the horizontally merged B."""
        assert "_mm_set_ps(8.0f, 7.0f, 6.0f, 5.0f)" in running_example_cpp


class TestHorizontalLaneOrder:
    """The HSplitter/HJoiner lane order comes from the mover map, not
    from constants that happen to be right for one weight."""

    def _text(self):
        g = StreamGraph("h")
        src = g.add_actor(make_ramp_source(12, name="src"))
        hsplit = g.add_actor(HSplitterSpec(SplitKind.ROUNDROBIN, 3, 4))
        hjoin = g.add_actor(HJoinerSpec(3, 4))
        tail = g.add_actor(make_scaler(name="tail"))
        g.add_tape(src.id, hsplit.id)
        g.add_tape(hsplit.id, hjoin.id, vector_width=4)
        g.add_tape(hjoin.id, tail.id)
        return emit_cpp(g, CORE_I7)

    def test_hsplitter_gathers_lane_k_from_branch_k(self):
        text = self._text()
        # weight 3: branch k owns c[3k .. 3k+2]; vector j takes c[3k + j]
        # into lane k (_mm_set_ps lists the high lane first).
        for j in range(3):
            assert (f"push(_mm_set_ps(c[{9 + j}], c[{6 + j}], c[{3 + j}], "
                    f"c[{j}]));") in text

    def test_hjoiner_scatters_branch_major(self):
        text = self._text()
        pushes = [line.strip() for line in text.splitlines()
                  if ".push(_lane(v[" in line]
        assert [p[p.index("_lane("):] for p in pushes] == [
            f"_lane(v[{j}], {k}));" for k in range(4) for j in range(3)]


class TestNonSseTargetRefused:
    def test_emitter_raises_typed_error(self):
        graph = flatten(get_benchmark("RunningExample"))
        compiled = compile_graph(graph, GPU_LIKE)
        with pytest.raises(UnsupportedCodegenTarget, match="gpu-like"):
            emit_cpp(compiled.graph, GPU_LIKE)

    def test_cli_exits_nonzero_with_one_line(self, capsys):
        code = main(["compile", "RunningExample", "--cpp",
                     "--machine", "gpu-like"])
        captured = capsys.readouterr()
        assert code != 0
        assert "__m128" not in captured.out
        assert captured.err.strip().splitlines() == [
            "error: C++ codegen emits 4-lane SSE only; target 'gpu-like' "
            "has SIMD width 16"]


class TestSaguEmission:
    def test_sagu_struct_emitted_when_used(self):
        graph = flatten(get_benchmark("DCT"))
        compiled = compile_graph(graph, CORE_I7_SAGU)
        text = emit_cpp(compiled.graph, CORE_I7_SAGU)
        if any(t.lane_ordered for t in compiled.graph.tapes.values()):
            assert "struct SAGU" in text
            assert "lane-ordered" in text


class TestScalarGraphEmission:
    def test_plain_graph_emits_without_vectors(self):
        g = linear_program(make_ramp_source(4), make_scaler(),
                           make_pair_sum())
        text = emit_cpp(g, CORE_I7)
        assert "struct scale" in text
        assert "__in.pop()" in text
        assert "_mm_add_ps" not in text

    def test_every_benchmark_emits(self):
        from repro.apps import BENCHMARKS
        for name in sorted(BENCHMARKS):
            graph = flatten(get_benchmark(name))
            compiled = compile_graph(graph, CORE_I7)
            text = emit_cpp(compiled.graph, CORE_I7)
            assert "int main()" in text
            assert len(text.splitlines()) > 50

    def test_math_mapping(self):
        from repro.ir import WorkBuilder, call
        from repro.graph import FilterSpec
        b = WorkBuilder()
        b.push(call("sqrt", call("abs", b.pop())))
        spec = FilterSpec("m", pop=1, push=1, work_body=b.build())
        g = linear_program(make_ramp_source(4), spec)
        text = emit_cpp(g, CORE_I7)
        assert "sqrtf(" in text and "fabsf(" in text
        compiled = compile_graph(g, CORE_I7)
        vec_text = emit_cpp(compiled.graph, CORE_I7)
        assert "_mm_sqrt_ps(" in vec_text
