"""Compiled execution backend: IR -> Python-closure compiler.

Instead of tree-walking the work-function IR on every firing (what
:mod:`repro.runtime.interpreter` does), this subsystem compiles each
actor's init/work body **once** into a composition of small Python
closures, specialised on

* each value's scalar/vector kind, which the IR states
  (:func:`repro.simd.analysis.expr_is_vector`, the one lane-kind rule),
* tape access kind (scalar / vector reads and writes),
* lane-ordering and SAGU flags of the surrounding tapes.

Two further tricks make the compiled engine fast while keeping the modeled
cycle counts **bit-identical** to the interpreter:

* **kernel caching** — kernels are keyed by the body itself (crossed
  with the specialisation), every constant baked into the closures, so
  actors with equal bodies — the same factory called with the same
  arguments, or one graph re-executed — share one compiled kernel.
  :func:`repro.ir.structhash.same_constants` decides when an equal but
  different body object may reuse an entry.
* **static event aggregation** — the :class:`~repro.perf.counters.PerfCounters`
  delta of every straight-line block is pre-computed at compile time and
  charged in one batched update per execution of the block, instead of one
  ``counters.add`` call per IR operation.  Every event is static; only a
  scatter whose vector is not the kernel's width is recharged at runtime.

The public entry point is :class:`CompiledBackend`, selected through
``execute(..., backend="compiled")`` or the ``--backend`` CLI flag.
"""

from __future__ import annotations

from .backend import CompiledActor, CompiledBackend
from .compiler import Kernel, Specialization, compile_kernel

__all__ = [
    "CompiledActor",
    "CompiledBackend",
    "Kernel",
    "Specialization",
    "compile_kernel",
]
