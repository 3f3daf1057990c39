"""Static layering check: ``repro.runtime`` sits below the multicore,
serving and planning layers and must not import them, ``repro.plan``
sits below the multicore runtime, the compiler (``repro.simd``) sits
below the planner, and the vector backend is built on the interpreter,
not on the closure compiler.

``import repro`` pulls every subpackage in, so ``sys.modules`` cannot show
a layering leak — the imports are read off the AST instead, function-level
(lazy) imports included.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
UPPER_LAYERS = ("repro.multicore", "repro.serve", "repro.plan")

#: The one sanctioned upward edge: ``execute(..., cores=N)`` is the front
#: door that hands a run to the parallel runtime (lazily, at call time).
ALLOWED = {("repro.runtime.executor", "repro.multicore")}


def _imported_names(path: Path):
    """Absolute dotted name of everything ``path`` imports (modules, and
    for ``from m import n`` also ``m.n`` — ``n`` may be a submodule)."""
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    package = parts[:-1]    # a module's, or an ``__init__``'s own, package
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level \
                else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _edges_into(package: str, layers):
    """``(importer, layer)`` for every module under ``package`` that
    imports one of ``layers``."""
    edges = set()
    for path in sorted((SRC / package).rglob("*.py")):
        importer = ".".join(
            path.relative_to(SRC.parent).with_suffix("").parts)
        for name in _imported_names(path):
            edges.update((importer, layer) for layer in layers
                         if (name + ".").startswith(layer + "."))
    return edges


def test_runtime_does_not_import_upper_layers():
    upward = _edges_into("runtime", UPPER_LAYERS)
    assert upward == ALLOWED, sorted(upward ^ ALLOWED)


def test_plan_does_not_import_multicore():
    """The planner prices partitions; the thread runtime that executes
    them sits on top of it, never underneath."""
    assert _edges_into("plan", ("repro.multicore",)) == set()


def test_simd_does_not_import_plan():
    """The planner compiles graphs and reads SIMD prices; the compiler
    never reaches up into the planner."""
    assert _edges_into("simd", ("repro.plan",)) == set()


def test_vector_does_not_import_compiled():
    """A vector run is the interpreter plus batch kernels: it neither
    subclasses nor builds the closure compiler's kernels."""
    assert _edges_into("runtime/vector", ("repro.runtime.compiled",)) \
        == set()
