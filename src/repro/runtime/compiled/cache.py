"""Kernel cache: one compiled kernel per (canonical body, specialisation).

Horizontal SIMDization thrives on isomorphic actor sets (§3.3); a graph
with sixteen structurally identical band-pass filters should pay the
compile cost once, not sixteen times.  The cache key is exactly the
equivalence the structhash isomorphism check induces — the typed canonical
body from :mod:`.canon` — crossed with the :class:`~.compiler.Specialization`
(tape kinds, lane ordering, SIMD width, state shapes), since a kernel's
closures and static counter deltas are only valid under the specialisation
they were compiled for.

``CacheStats`` exposes lookup/hit/miss counts so tests can
assert that structhash-equal actors really do share one kernel, and so
``macross run/profile/trace --backend compiled`` can surface cache
behaviour per execution (see
:meth:`repro.runtime.executor.ExecutionResult.kernel_cache`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ...ir import stmt as S
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
    """Maps ``(canonical body, specialisation)`` to a compiled kernel.

    Unbounded: a kernel is keyed by content, so residency grows with the
    number of distinct actor bodies a process has seen, never per run.
    """

    def __init__(self) -> None:
        self._kernels: Dict[Tuple[S.Body, Specialization], Kernel] = {}
        self.stats = CacheStats()
        # The parallel runtime sets up per-core actors concurrently, so
        # lookup/compile/insert must be atomic.  Setup-time only (kernels
        # are looked up once per actor, never per firing), so the lock is
        # off every hot path.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._kernels)

    def get_or_compile(self, canon_body: S.Body,
                       spec: Specialization) -> Kernel:
        """Return the kernel for ``canon_body`` under ``spec``, compiling it
        on first request.  Kernels are stateless (per-instance constants are
        bound into the :class:`~.compiler.Frame`, not the kernel), so
        sharing across actors and executions is always sound.  Thread-safe:
        concurrent per-core setup threads serialise here."""
        with self._lock:
            self.stats.lookups += 1
            key = (canon_body, spec)
            kernel = self._kernels.get(key)
            if kernel is None:
                kernel = compile_kernel(canon_body, spec)
                self._kernels[key] = kernel
            else:
                self.stats.hits += 1
            return kernel
