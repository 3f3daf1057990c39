"""Target-specific intermediate code generation (C++ with SSE intrinsics)."""

from .cpp import CppEmitter, UnsupportedCodegenTarget, emit_cpp

__all__ = ["CppEmitter", "UnsupportedCodegenTarget", "emit_cpp"]
