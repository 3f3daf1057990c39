"""Vectorized numpy data-plane backend (``backend="vector"``).

Batches SW-wide × M-repetition runs of actor firings into whole-array
numpy kernels over contiguous tape windows; an actor whose work body is
not provably vectorizable replays on the interpreter.
See :mod:`.kernel` for the vectorizability analysis and
:mod:`.np_compat` for the bit-parity intrinsic calibration.
"""

from .backend import VectorBackend
from .kernel import BatchKernel, Unvectorizable, build_batch_kernel
from .np_compat import HAVE_NUMPY, EXACT_INTRINSICS, exact_intrinsics

__all__ = [
    "VectorBackend",
    "BatchKernel",
    "Unvectorizable",
    "build_batch_kernel",
    "HAVE_NUMPY",
    "EXACT_INTRINSICS",
    "exact_intrinsics",
]
