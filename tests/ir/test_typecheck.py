"""Tests for the static type checker."""

import pytest

from repro.graph import FilterSpec, StateVar
from repro.ir import FLOAT, INT, ArrayHandle, Param, WorkBuilder, call
from repro.ir import expr as E
from repro.ir import lvalue as L
from repro.ir import stmt as S
from repro.ir.typecheck import check_graph, check_spec
from repro.ir.types import Vector
from repro.simd.machine import list_targets


def issues_of(work_body, init_body=(), state=(), pop=1, push=1):
    spec = FilterSpec("t", pop=pop, push=push, state=tuple(state),
                      init_body=tuple(init_body), work_body=tuple(work_body))
    return [str(i) for i in check_spec(spec)]


class TestCleanBodies:
    def test_simple_body_clean(self):
        b = WorkBuilder()
        b.push(b.pop() * 2.0)
        assert issues_of(b.build()) == []

    def test_loops_arrays_state(self):
        b = WorkBuilder()
        a = b.array("a", FLOAT, 4)
        with b.loop("i", 0, 4) as i:
            b.set(a[i], b.pop() + b.var("bias"))
        with b.loop("i", 0, 4) as i:
            b.push(a[i])
        assert issues_of(b.build(), state=(StateVar("bias", FLOAT, 0, 0.0),),
                         pop=4, push=4) == []

    def test_every_benchmark_type_checks(self):
        from repro.apps import BENCHMARKS, get_benchmark
        from repro.graph import flatten
        for name in sorted(BENCHMARKS):
            graph = flatten(get_benchmark(name))
            assert check_graph(graph) == [], name

    def test_compiled_graphs_type_check(self):
        """SIMDized bodies (gathers, lanes, vector decls) are well-typed."""
        from repro.apps import get_benchmark
        from repro.graph import flatten
        from repro.simd import compile_graph
        from repro.simd.machine import CORE_I7
        for name in ("RunningExample", "DCT", "DES"):
            compiled = compile_graph(flatten(get_benchmark(name)), CORE_I7)
            assert check_graph(compiled.graph) == [], name

    @pytest.mark.parametrize("target", list_targets())
    def test_every_app_type_checks_on_every_target(self, target):
        """Tape reads take the width the IR states, so wide targets
        (16-lane ``gpu-like``) raise no false width mismatches."""
        from repro.apps import BENCHMARKS, get_benchmark
        from repro.graph import flatten
        from repro.simd import compile_graph, get_target
        issues = {name: check_graph(compile_graph(
                      flatten(get_benchmark(name)), get_target(target)).graph)
                  for name in sorted(BENCHMARKS)}
        assert len(issues) == 19
        assert {name: found for name, found in issues.items() if found} == {}


class TestVariableErrors:
    def test_undeclared_use(self):
        issues = issues_of((S.Push(E.Var("ghost")),))
        assert any("undeclared variable 'ghost'" in i for i in issues)

    def test_undeclared_assignment(self):
        issues = issues_of((S.Assign(L.VarLV("ghost"), E.FloatConst(1.0)),
                            S.Push(E.Pop())))
        assert any("undeclared 'ghost'" in i for i in issues)

    def test_redeclaration(self):
        b = WorkBuilder()
        b.let("x", 1.0)
        b.let("x", 2.0)
        b.push(b.pop())
        assert any("redeclaration" in i for i in issues_of(b.build()))

    def test_array_without_index(self):
        b = WorkBuilder()
        a = b.array("a", FLOAT, 4)
        b.push(b.var("a") + b.pop())
        assert any("used without index" in i for i in issues_of(b.build()))

    def test_scalar_indexed(self):
        b = WorkBuilder()
        x = b.let("x", 1.0)
        b.push(E.ArrayRead("x", E.IntConst(0)) + b.pop())
        assert any("is not an array" in i for i in issues_of(b.build()))

    def test_loop_variable_scoped(self):
        b = WorkBuilder()
        with b.loop("i", 0, 2):
            b.push(b.pop())
        body = b.build() + (S.Push(E.Var("i")), S.ExprStmt(E.Pop()))
        issues = issues_of(body, pop=3, push=3)
        assert any("undeclared variable 'i'" in i for i in issues)


class TestTypeErrors:
    def test_float_to_int_narrowing(self):
        b = WorkBuilder()
        n = b.let("n", 0, ty=INT)
        b.set(n, b.pop())  # float tape data into int
        b.push(n)
        assert any("cannot assign" in i for i in issues_of(b.build()))

    def test_int_widens_to_float_silently(self):
        b = WorkBuilder()
        x = b.let("x", 0.0)
        b.set(x, 3)
        b.push(x + b.pop())
        assert issues_of(b.build()) == []

    def test_bitwise_on_float(self):
        b = WorkBuilder()
        b.push(b.pop() & 3)
        assert any("bitwise" in i for i in issues_of(b.build()))

    def test_wrong_intrinsic_arity(self):
        body = (S.Push(E.Call("min", (E.Pop(),))),)
        assert any("expects 2" in i for i in issues_of(body))

    def test_unbound_param_flagged(self):
        b = WorkBuilder()
        b.push(b.pop() * Param("k"))
        assert any("unbound parameter" in i for i in issues_of(b.build()))


class TestStreamingRules:
    def test_tape_read_in_init(self):
        init = WorkBuilder()
        x = init.var("x")
        init.set(x, init.pop())
        work = WorkBuilder()
        work.push(work.pop())
        issues = issues_of(work.build(), init_body=init.build(),
                           state=(StateVar("x", FLOAT, 0, 0.0),))
        assert any("tape read in init" in i for i in issues)

    def test_tape_push_in_init(self):
        init = WorkBuilder()
        init.push(1.0)
        work = WorkBuilder()
        work.push(work.pop())
        issues = issues_of(work.build(), init_body=init.build())
        assert any("tape push in init" in i for i in issues)

    def test_vector_branch_condition(self):
        body = (S.If(E.VectorConst((1.0, 0.0, 1.0, 0.0)), (), ()),
                S.Push(E.Pop()))
        assert any("vector-valued branch" in i for i in issues_of(body))


class TestVectorRules:
    def test_lane_out_of_range(self):
        body = (S.DeclVar("v", Vector(FLOAT, 4),
                          E.Broadcast(E.FloatConst(0.0), 4)),
                S.Push(E.Lane(E.Var("v"), 7)),
                S.ExprStmt(E.Pop()))
        assert any("out of range" in i for i in issues_of(body))

    def test_lane_on_scalar(self):
        b = WorkBuilder()
        x = b.let("x", 1.0)
        b.push(x.lane(0) + b.pop())
        assert any("lane access on" in i for i in issues_of(b.build()))

    def test_width_mismatch(self):
        body = (S.Push(E.BinaryOp(
            "+", E.VectorConst((1.0, 2.0)),
            E.VectorConst((1.0, 2.0, 3.0, 4.0)))),
            S.ExprStmt(E.Pop()))
        assert any("width mismatch" in i for i in issues_of(body))

    def test_tape_reads_take_the_stated_width(self):
        wide = Vector(FLOAT, 8)
        body = (S.DeclVar("v", wide, E.VPop()),
                S.VPush(E.BinaryOp("+", E.Var("v"), E.GatherPop(stride=1))))
        assert issues_of(body) == []
        narrow = body + (S.VPush(E.BinaryOp(
            "+", E.Var("v"), E.VectorConst((1.0, 2.0, 3.0, 4.0)))),)
        assert any("width mismatch: 8 vs 4" in i for i in issues_of(narrow))
