"""Static type checking of actor bodies.

Catches, before anything runs, the mistakes the dynamic interpreter would
only hit on a reachable path: undeclared variables, scalar/array confusion,
lane access on scalars, tape operations in ``init`` bodies, wrong intrinsic
arity, float-to-int narrowing, branch conditions that are vectors, and
stores that change a name's lane kind (scalar into vector or back).

The checker is deliberately permissive where C is (int widens to float
implicitly) and strict where streaming semantics demand it (init bodies
must not touch tapes — they run before any data exists).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import expr as E
from . import lvalue as L
from . import stmt as S
from .types import BOOL, FLOAT, INT, IRType, Scalar, ScalarKind, Vector
from .visitors import iter_all_exprs, iter_stmts

#: Intrinsic arities (everything else is unary).
_ARITY = {"atan2": 2, "pow": 2, "min": 2, "max": 2}


def _stated_width(spec) -> int:
    """The SIMD width ``spec``'s IR states: the widest of its vector types,
    broadcasts and vector literals.  When it states none, every vector
    comes from tape reads or ``ArrayVec`` loads, which share one width:
    the 4 returned then only bounds ``lane(v, k)`` reads of them."""
    bodies = (spec.init_body, spec.work_body)
    types = [var.type for var in spec.state] + [
        getattr(stmt, "type", getattr(stmt, "elem_type", None))
        for body in bodies for stmt in iter_stmts(body)]
    widths = [ty.width for ty in types if isinstance(ty, Vector)]
    widths += [e.width if isinstance(e, E.Broadcast) else len(e.values)
               for body in bodies for e in iter_all_exprs(body)
               if isinstance(e, (E.Broadcast, E.VectorConst))]
    return max(widths, default=4)


@dataclass(frozen=True)
class TypeIssue:
    message: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.message


@dataclass
class _Binding:
    type: IRType
    is_array: bool


class TypeChecker:
    """Checks one actor spec's init and work bodies."""

    def __init__(self, spec) -> None:
        self.spec = spec
        self.issues: List[TypeIssue] = []
        #: lanes of a ``vpop``/``vpeek``/gather/``ArrayVec`` value.
        self.width = _stated_width(spec)

    def check(self) -> List[TypeIssue]:
        state: Dict[str, _Binding] = {
            var.name: _Binding(var.type, var.is_array)
            for var in self.spec.state}
        self._check_body(self.spec.init_body, dict(state), in_init=True)
        self._check_body(self.spec.work_body, dict(state), in_init=False)
        return self.issues

    # -- helpers ---------------------------------------------------------------
    def _issue(self, message: str) -> None:
        self.issues.append(TypeIssue(f"{self.spec.name}: {message}"))

    def _elem(self, ty: IRType) -> Scalar:
        return ty.elem if isinstance(ty, Vector) else ty

    def _assignable(self, target: IRType, value: Optional[IRType]) -> bool:
        if value is None:
            return True  # an earlier error already fired
        t, v = self._elem(target), self._elem(value)
        if t == v:
            return True
        if t.kind is ScalarKind.FLOAT and v.kind in (ScalarKind.INT,
                                                     ScalarKind.BOOL):
            return True  # implicit widening
        if t.kind is ScalarKind.INT and v.kind is ScalarKind.BOOL:
            return True
        return False

    def _check_kind(self, target: Optional[IRType],
                    value: Optional[IRType], name: str) -> None:
        """A store keeps its target's lane kind, the kind the lane-kind
        rule reads the name with: a scalar goes into a vector-typed name
        only through ``broadcast``, and a vector never goes into a
        scalar-typed name or lane."""
        if target is None or value is None:
            return  # an earlier error already fired, or a buffer read
        if isinstance(target, Vector) != isinstance(value, Vector):
            self._issue(f"cannot store {value} into {target} {name!r} "
                        f"(lane kinds differ)")

    # -- statements -------------------------------------------------------------
    def _check_body(self, body: S.Body, scope: Dict[str, _Binding],
                    *, in_init: bool) -> None:
        for stmt in body:
            self._check_stmt(stmt, scope, in_init=in_init)

    def _check_stmt(self, stmt: S.Stmt, scope: Dict[str, _Binding],
                    *, in_init: bool) -> None:
        if isinstance(stmt, S.DeclVar):
            if stmt.name in scope:
                self._issue(f"redeclaration of {stmt.name!r}")
            value = (self._check_expr(stmt.init, scope, in_init=in_init)
                     if stmt.init is not None else None)
            if stmt.init is not None \
                    and not self._assignable(stmt.type, value):
                self._issue(
                    f"cannot initialise {stmt.type} {stmt.name!r} "
                    f"from {value}")
            # A scalar initialiser of a vector local is splatted; a vector
            # one of a scalar local has no meaning.
            if not isinstance(stmt.type, Vector):
                self._check_kind(stmt.type, value, stmt.name)
            scope[stmt.name] = _Binding(stmt.type, False)
        elif isinstance(stmt, S.DeclArray):
            if stmt.name in scope:
                self._issue(f"redeclaration of {stmt.name!r}")
            scope[stmt.name] = _Binding(stmt.elem_type, True)
        elif isinstance(stmt, S.Assign):
            value = self._check_expr(stmt.rhs, scope, in_init=in_init)
            target = self._check_lvalue(stmt.lhs, scope, in_init=in_init)
            if target is not None and not self._assignable(target, value):
                self._issue(
                    f"cannot assign {value} to {target} "
                    f"({_lvalue_name(stmt.lhs)!r})")
            self._check_kind(target, value, _lvalue_name(stmt.lhs))
        elif isinstance(stmt, (S.Push, S.VPush)):
            if in_init:
                self._issue("tape push in init body")
            self._check_expr(stmt.value, scope, in_init=in_init)
        elif isinstance(stmt, S.RPush):
            if in_init:
                self._issue("tape push in init body")
            self._check_expr(stmt.value, scope, in_init=in_init)
            self._check_expr(stmt.offset, scope, in_init=in_init)
        elif isinstance(stmt, S.ScatterPush):
            self._check_expr(stmt.value, scope, in_init=in_init)
        elif isinstance(stmt, S.InternalPush):
            self._check_expr(stmt.value, scope, in_init=in_init)
        elif isinstance(stmt, S.ExprStmt):
            self._check_expr(stmt.expr, scope, in_init=in_init)
        elif isinstance(stmt, S.For):
            start = self._check_expr(stmt.start, scope, in_init=in_init)
            end = self._check_expr(stmt.end, scope, in_init=in_init)
            for bound, label in ((start, "start"), (end, "end")):
                if isinstance(bound, Vector):
                    self._issue(f"vector loop {label} bound")
            inner = dict(scope)
            inner[stmt.var] = _Binding(INT, False)
            self._check_body(stmt.body, inner, in_init=in_init)
        elif isinstance(stmt, S.If):
            cond = self._check_expr(stmt.cond, scope, in_init=in_init)
            if isinstance(cond, Vector):
                self._issue("vector-valued branch condition")
            self._check_body(stmt.then_body, dict(scope), in_init=in_init)
            self._check_body(stmt.else_body, dict(scope), in_init=in_init)
        elif isinstance(stmt, (S.AdvanceReader, S.AdvanceWriter,
                               S.CostAnnotation)):
            pass
        else:  # pragma: no cover - future statements
            self._issue(f"unknown statement {type(stmt).__name__}")

    def _check_lvalue(self, lhs: L.LValue, scope: Dict[str, _Binding],
                      *, in_init: bool) -> Optional[IRType]:
        if isinstance(lhs, L.VarLV):
            binding = scope.get(lhs.name)
            if binding is None:
                self._issue(f"assignment to undeclared {lhs.name!r}")
                return None
            if binding.is_array:
                self._issue(f"array {lhs.name!r} assigned without index")
                return None
            return binding.type
        if isinstance(lhs, (L.ArrayLV, L.ArrayLaneLV)):
            binding = scope.get(lhs.name)
            if binding is None:
                self._issue(f"assignment to undeclared array {lhs.name!r}")
                return None
            if not binding.is_array:
                self._issue(f"{lhs.name!r} indexed but is not an array")
                return None
            index = self._check_expr(lhs.index, scope, in_init=in_init)
            if isinstance(index, Vector):
                self._issue(f"vector index into array {lhs.name!r}")
            if isinstance(lhs, L.ArrayLaneLV):
                return self._lane_target(binding.type, lhs.name)
            return binding.type
        if isinstance(lhs, L.LaneLV):
            binding = scope.get(lhs.name)
            if binding is None:
                self._issue(f"lane assignment to undeclared {lhs.name!r}")
                return None
            return self._lane_target(binding.type, lhs.name)
        return None  # pragma: no cover

    def _lane_target(self, ty: IRType, name: str) -> Optional[Scalar]:
        if not isinstance(ty, Vector):
            self._issue(f"lane access on scalar {name!r}")
            return None
        return ty.elem

    # -- expressions --------------------------------------------------------------
    def _check_expr(self, expr: E.Expr, scope: Dict[str, _Binding],
                    *, in_init: bool) -> Optional[IRType]:
        if isinstance(expr, E.IntConst):
            return INT
        if isinstance(expr, E.FloatConst):
            return FLOAT
        if isinstance(expr, E.BoolConst):
            return BOOL
        if isinstance(expr, E.VectorConst):
            elem = INT if all(isinstance(v, int) and not isinstance(v, bool)
                              for v in expr.values) else FLOAT
            return Vector(elem, max(2, len(expr.values)))
        if isinstance(expr, E.Param):
            self._issue(f"unbound parameter {expr.name!r} "
                        "(bind_params before checking)")
            return None
        if isinstance(expr, E.Var):
            binding = scope.get(expr.name)
            if binding is None:
                self._issue(f"use of undeclared variable {expr.name!r}")
                return None
            if binding.is_array:
                self._issue(f"array {expr.name!r} used without index")
                return None
            return binding.type
        if isinstance(expr, (E.ArrayRead, E.ArrayVec)):
            binding = scope.get(expr.name)
            if binding is None:
                self._issue(f"use of undeclared array {expr.name!r}")
                return None
            if not binding.is_array:
                self._issue(f"{expr.name!r} indexed but is not an array")
                return None
            index = self._check_expr(expr.index, scope, in_init=in_init)
            if isinstance(index, Vector):
                self._issue(f"vector index into array {expr.name!r}")
            if isinstance(expr, E.ArrayVec):
                return Vector(self._elem(binding.type), self.width)
            return binding.type
        if isinstance(expr, E.Lane):
            base = self._check_expr(expr.base, scope, in_init=in_init)
            if base is None:
                return None
            if not isinstance(base, Vector):
                self._issue("lane access on a scalar value")
                return None
            if not 0 <= expr.index < base.width:
                self._issue(f"lane {expr.index} out of range for {base}")
            return base.elem
        if isinstance(expr, E.Broadcast):
            value = self._check_expr(expr.value, scope, in_init=in_init)
            if isinstance(value, Vector):
                self._issue("broadcast of a vector value")
                return value
            elem = value if isinstance(value, Scalar) else FLOAT
            return Vector(elem, expr.width)
        if isinstance(expr, E.BinaryOp):
            return self._check_binary(expr, scope, in_init=in_init)
        if isinstance(expr, E.UnaryOp):
            operand = self._check_expr(expr.operand, scope, in_init=in_init)
            if expr.op == "~" and operand is not None \
                    and self._elem(operand).kind is ScalarKind.FLOAT:
                self._issue("bitwise complement of a float")
            return operand
        if isinstance(expr, E.Call):
            return self._check_call(expr, scope, in_init=in_init)
        if isinstance(expr, E.Select):
            cond = self._check_expr(expr.cond, scope, in_init=in_init)
            a = self._check_expr(expr.if_true, scope, in_init=in_init)
            b = self._check_expr(expr.if_false, scope, in_init=in_init)
            if isinstance(cond, Vector) and not (isinstance(a, Vector)
                                                 or isinstance(b, Vector)):
                self._issue("vector select over scalar arms")
            return next((ty for ty in (a, b) if isinstance(ty, Vector)),
                        a or b)
        if isinstance(expr, (E.Pop, E.Peek)):
            if in_init:
                self._issue("tape read in init body")
            if isinstance(expr, E.Peek):
                offset = self._check_expr(expr.offset, scope,
                                          in_init=in_init)
                if isinstance(offset, Vector):
                    self._issue("vector peek offset")
            return self.spec.data_type
        if isinstance(expr, (E.VPop, E.VPeek, E.GatherPop, E.GatherPeek)):
            if in_init:
                self._issue("tape read in init body")
            if isinstance(expr, (E.VPeek, E.GatherPeek)):
                self._check_expr(expr.offset, scope, in_init=in_init)
            return Vector(self.spec.data_type, self.width)
        if isinstance(expr, (E.InternalPop, E.InternalPeek)):
            if isinstance(expr, E.InternalPeek):
                self._check_expr(expr.offset, scope, in_init=in_init)
            return None  # buffer element types are caller-defined
        self._issue(f"unknown expression {type(expr).__name__}")
        return None

    def _check_binary(self, expr: E.BinaryOp, scope, *, in_init: bool
                      ) -> Optional[IRType]:
        left = self._check_expr(expr.left, scope, in_init=in_init)
        right = self._check_expr(expr.right, scope, in_init=in_init)
        if left is None or right is None:
            return None
        if expr.op in ("<<", ">>", "&", "|", "^", "%"):
            for side, ty in (("left", left), ("right", right)):
                if self._elem(ty).kind is ScalarKind.FLOAT \
                        and expr.op != "%":
                    self._issue(
                        f"bitwise {expr.op!r} on float ({side} operand)")
        width = None
        for ty in (left, right):
            if isinstance(ty, Vector):
                if width is not None and ty.width != width:
                    self._issue(
                        f"vector width mismatch: {width} vs {ty.width}")
                width = ty.width
        if expr.op in E.COMPARISON_OPS:
            result_elem = BOOL
        else:
            kinds = {self._elem(left).kind, self._elem(right).kind}
            result_elem = FLOAT if ScalarKind.FLOAT in kinds else INT
        return Vector(result_elem if result_elem != BOOL else INT, width) \
            if width else result_elem

    def _check_call(self, expr: E.Call, scope, *, in_init: bool
                    ) -> Optional[IRType]:
        expected = _ARITY.get(expr.func, 1)
        if len(expr.args) != expected:
            self._issue(f"{expr.func} expects {expected} argument(s), "
                        f"got {len(expr.args)}")
        width = None
        for arg in expr.args:
            ty = self._check_expr(arg, scope, in_init=in_init)
            if isinstance(ty, Vector):
                width = ty.width
        result = INT if expr.func == "int" else FLOAT
        return Vector(result, width) if width else result


def check_spec(spec) -> List[TypeIssue]:
    """Type-check one actor; returns (possibly empty) issue list."""
    return TypeChecker(spec).check()


def check_graph(graph) -> List[TypeIssue]:
    """Type-check every filter in a flat graph."""
    from ..graph.actor import FilterSpec
    issues: List[TypeIssue] = []
    for actor in graph.actors.values():
        if isinstance(actor.spec, FilterSpec):
            issues.extend(check_spec(actor.spec))
    return issues


def _lvalue_name(lhs: L.LValue) -> str:
    return getattr(lhs, "name", "?")
