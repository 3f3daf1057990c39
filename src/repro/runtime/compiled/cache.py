"""Kernel cache: one compiled kernel per (body, specialisation).

A kernel bakes its body's constants into its closures, so it is keyed by
the body itself crossed with the :class:`~.compiler.Specialization`
(tape kinds, lane ordering, SIMD width, state shapes), since a kernel's
closures and static counter deltas are only valid under the
specialisation they were compiled for.  Actors built from one factory
with the same arguments share a kernel; an entry built from an equal but
different body object serves only under
:func:`repro.ir.structhash.same_constants`.

``CacheStats`` exposes lookup/hit/miss counts so tests can assert what
was shared, and so ``macross run/profile/trace --backend compiled`` can
surface cache behaviour per execution (see
:meth:`repro.runtime.executor.ExecutionResult.kernel_cache`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ...ir import stmt as S
from ...ir.structhash import same_constants
from .compiler import Kernel, Specialization, compile_kernel


@dataclass
class CacheStats:
    """Observable cache behaviour (mutated in place by the cache)."""

    lookups: int = 0
    hits: int = 0

    @property
    def compiled(self) -> int:
        """Number of distinct kernels actually compiled."""
        return self.lookups - self.hits

    @property
    def misses(self) -> int:
        """Alias of :attr:`compiled` (every miss compiles exactly once)."""
        return self.compiled

    def snapshot(self) -> Dict[str, int]:
        """Immutable copy of the counters (for before/after deltas)."""
        return {"lookups": self.lookups, "hits": self.hits,
                "misses": self.misses, "compiled": self.compiled}

    def delta(self, before: Mapping[str, int]) -> Dict[str, int]:
        """Counter changes since a previous :meth:`snapshot`."""
        now = self.snapshot()
        return {key: now[key] - before.get(key, 0) for key in now}


class KernelCache:
    """Maps ``(body, specialisation)`` to a compiled kernel.

    Unbounded: a kernel is keyed by content, so residency grows with the
    number of distinct actor bodies a process has seen, never per run.
    """

    def __init__(self) -> None:
        # key -> (body built from, kernel)
        self._kernels: Dict[Tuple[S.Body, Specialization],
                            Tuple[S.Body, Kernel]] = {}
        self.stats = CacheStats()
        # Per-core set-up runs sequentially, but ``resolve_backend`` hands
        # every thread of the process the same backend (and so the same
        # cache), so lookup/compile/insert must be atomic.  Set-up time
        # only (kernels are looked up once per actor, never per firing),
        # so the lock is off every hot path.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._kernels)

    def get_or_compile(self, body: S.Body, spec: Specialization) -> Kernel:
        """Return the kernel for ``body`` under ``spec``, compiling it on
        first request.  Kernels keep no per-actor data (that lives in the
        :class:`~.compiler.Frame`), so sharing across actors and
        executions is always sound.  Thread-safe: concurrent per-core
        setup threads serialise here."""
        with self._lock:
            self.stats.lookups += 1
            key = (body, spec)
            entry = self._kernels.get(key)
            if entry is None or not same_constants(entry[0], body):
                entry = (body, compile_kernel(body, spec))
                self._kernels[key] = entry
            else:
                self.stats.hits += 1
            return entry[1]
