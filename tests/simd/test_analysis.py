"""Tests for SIMDizability analysis (§3.1's exclusion rules)."""

from repro.graph import FilterSpec, StateVar
from repro.ir import FLOAT, ArrayHandle, WorkBuilder, call
from repro.simd import analyze_filter, is_stateful
from repro.ir import expr as E
from repro.ir import stmt as S
from repro.ir.types import Vector
from repro.simd.analysis import (actor_vector_names, expr_is_vector,
                                 internal_buffer, tainted_vars, vector_names,
                                 written_state_vars)
from repro.simd.machine import CORE_I7, NEON_LIKE
from repro.simd.segments import horizontal_verdict


def _stateless_spec():
    b = WorkBuilder()
    b.push(b.pop() * 2.0)
    return FilterSpec("ok", pop=1, push=1, work_body=b.build())


def _stateful_spec():
    b = WorkBuilder()
    acc = b.var("acc")
    b.set(acc, acc + b.pop())
    b.push(acc)
    return FilterSpec("st", pop=1, push=1,
                      state=(StateVar("acc", FLOAT, 0, 0.0),),
                      work_body=b.build())


class TestStatefulness:
    def test_stateless(self):
        assert not is_stateful(_stateless_spec())

    def test_state_write_detected(self):
        spec = _stateful_spec()
        assert is_stateful(spec)
        assert written_state_vars(spec) == {"acc"}

    def test_read_only_state_is_not_stateful(self):
        """Coefficient tables filled in init do not block SIMDization."""
        b = WorkBuilder()
        coeff = ArrayHandle("coeff")
        b.push(b.pop() * coeff[0])
        spec = FilterSpec("ro", pop=1, push=1,
                          state=(StateVar("coeff", FLOAT, 4, 1.0),),
                          work_body=b.build())
        assert not is_stateful(spec)
        assert analyze_filter(spec, CORE_I7).simdizable

    def test_init_writes_do_not_count(self):
        init = WorkBuilder()
        init.set(ArrayHandle("coeff")[0], 2.0)
        b = WorkBuilder()
        b.push(b.pop() * ArrayHandle("coeff")[0])
        spec = FilterSpec("iw", pop=1, push=1,
                          state=(StateVar("coeff", FLOAT, 4, 0.0),),
                          init_body=init.build(), work_body=b.build())
        assert not is_stateful(spec)


class TestVerdicts:
    def test_stateless_actor_accepted(self):
        assert analyze_filter(_stateless_spec(), CORE_I7).simdizable

    def test_stateful_rejected(self):
        verdict = analyze_filter(_stateful_spec(), CORE_I7)
        assert not verdict.simdizable
        assert any("stateful" in r for r in verdict.reasons)

    def test_source_rejected(self):
        spec = FilterSpec("src", pop=0, push=1)
        assert not analyze_filter(spec, CORE_I7).simdizable

    def test_unsupported_call_rejected(self):
        b = WorkBuilder()
        b.push(call("atan2", b.pop(), 1.0))
        spec = FilterSpec("at", pop=1, push=1, work_body=b.build())
        verdict = analyze_filter(spec, CORE_I7)
        assert not verdict.simdizable
        assert any("atan2" in r for r in verdict.reasons)

    def test_machine_dependent_call_support(self):
        """sin vectorizes on SSE (SVML) but not on the Neon-like target."""
        b = WorkBuilder()
        b.push(call("sin", b.pop()))
        spec = FilterSpec("s", pop=1, push=1, work_body=b.build())
        assert analyze_filter(spec, CORE_I7).simdizable
        assert not analyze_filter(spec, NEON_LIKE).simdizable

    def test_tape_dependent_branch_rejected(self):
        b = WorkBuilder()
        x = b.let("x", b.pop())
        with b.if_(x.gt(0.0)):
            b.push(x)
        with b.orelse():
            b.push(-x)
        spec = FilterSpec("br", pop=1, push=1, work_body=b.build())
        verdict = analyze_filter(spec, CORE_I7)
        assert not verdict.simdizable
        assert any("control" in r or "if" in r for r in verdict.reasons)

    def test_tape_dependent_subscript_rejected(self):
        b = WorkBuilder()
        a = b.array("a", FLOAT, 8)
        idx = b.let("idx", call("int", b.pop()))
        b.push(a[idx])
        spec = FilterSpec("ix", pop=1, push=1, work_body=b.build())
        assert not analyze_filter(spec, CORE_I7).simdizable

    def test_untainted_branch_allowed(self):
        b = WorkBuilder()
        k = b.let("k", 3)
        with b.if_(k.gt(0)):
            b.push(b.pop())
        with b.orelse():
            b.push(b.pop())
        spec = FilterSpec("cb", pop=1, push=1, work_body=b.build())
        assert analyze_filter(spec, CORE_I7).simdizable

    def test_loop_index_subscript_allowed(self):
        b = WorkBuilder()
        a = b.array("a", FLOAT, 4)
        with b.loop("i", 0, 4) as i:
            b.set(a[i], b.pop())
        with b.loop("i", 0, 4) as i:
            b.push(a[i])
        spec = FilterSpec("ok", pop=4, push=4, work_body=b.build())
        assert analyze_filter(spec, CORE_I7).simdizable


class TestTaint:
    def test_taint_propagates_through_assignments(self):
        b = WorkBuilder()
        x = b.let("x", b.pop())
        y = b.let("y", x * 2.0)
        z = b.let("z", y + 1.0)
        b.push(z)
        assert tainted_vars(b.build()) == {"x", "y", "z"}

    def test_untainted_vars_stay_clean(self):
        b = WorkBuilder()
        k = b.let("k", 5)
        x = b.let("x", b.pop())
        b.push(x * k)
        assert tainted_vars(b.build()) == {"x"}

    def test_array_taint(self):
        b = WorkBuilder()
        a = b.array("a", FLOAT, 2)
        b.set(a[0], b.pop())
        derived = b.let("d", a[1])
        b.push(derived)
        assert "a" in tainted_vars(b.build())
        assert "d" in tainted_vars(b.build())


class TestLaneKinds:
    X = E.Var("x")

    def test_lane_read_is_scalar(self):
        assert not expr_is_vector(self.X.lane(0) + 1.0, {"x"})
        assert expr_is_vector(self.X + 1.0, {"x"})

    def test_select_is_vector_when_any_operand_is(self):
        scalar = E.FloatConst(0.0)
        assert expr_is_vector(E.Select(E.BoolConst(True), self.X, scalar),
                              {"x"})
        assert expr_is_vector(E.Select(self.X, scalar, scalar), {"x"})
        assert not expr_is_vector(
            E.Select(E.BoolConst(True), scalar, scalar), {"x"})

    def test_array_read_takes_the_array_kind(self):
        assert not expr_is_vector(E.ArrayRead("a", self.X), {"x"})
        assert expr_is_vector(E.ArrayRead("x", E.IntConst(0)), {"x"})

    def test_internal_buffer_takes_the_kind_pushed_into_it(self):
        vec = E.VectorConst((1.0, 2.0, 3.0, 4.0))
        body = (S.InternalPush(2, E.InternalPop(1) * 2.0),
                S.InternalPush(0, E.FloatConst(1.0)),
                S.InternalPush(1, vec))
        names = vector_names(body)
        assert not expr_is_vector(E.InternalPop(0), names)
        assert expr_is_vector(E.InternalPeek(1, E.IntConst(0)), names)
        assert expr_is_vector(E.InternalPop(2), names)

    def test_state_and_buffers_are_actor_wide_locals_per_body(self):
        """A buffer init fills with vectors is a vector buffer in work, a
        push of vector state fills a vector buffer, and a vector local of
        init says nothing about work's name."""
        v4 = Vector(FLOAT, 4)
        vec = E.VectorConst((1.0, 2.0, 3.0, 4.0))
        spec = FilterSpec(
            "f", pop=1, push=1, state=(StateVar("s", v4, 0, 0.0),),
            init_body=(S.DeclVar("t", v4, vec), S.InternalPush(0, vec)),
            work_body=(S.InternalPush(1, E.Var("s")),
                       S.DeclVar("t", FLOAT, E.Pop()),
                       S.Push(E.InternalPeek(0, E.IntConst(0)).lane(0))))
        init, work = actor_vector_names(spec)
        assert work == {"s", internal_buffer(0), internal_buffer(1)}
        assert init == work | {"t"}
        assert internal_buffer(0) not in vector_names(spec.work_body,
                                                      spec.state)


class TestHorizontalVerdict:
    def test_stateful_allowed(self):
        assert horizontal_verdict(_stateful_spec(), CORE_I7).simdizable

    def test_other_restrictions_stand(self):
        b = WorkBuilder()
        b.push(call("atan2", b.pop(), 1.0))
        spec = FilterSpec("at", pop=1, push=1, work_body=b.build())
        assert not horizontal_verdict(spec, CORE_I7).simdizable
