"""Registry of benchmark programs (populated as apps are defined)."""

from __future__ import annotations

from typing import Callable, Dict

from ..graph.structure import Program

#: name -> zero-argument factory returning a Program.
BENCHMARKS: Dict[str, Callable[[], Program]] = {}


def register(name: str):
    def decorator(factory: Callable[[], Program]):
        BENCHMARKS[name] = factory
        return factory
    return decorator


def get_benchmark(name: str) -> Program:
    return BENCHMARKS[_registered_name(name)]()


def _registered_name(name: str) -> str:
    """The registry key ``name`` refers to; ``KeyError`` if none.  A pure
    lookup (no program is built), so callers can resolve names before
    doing any work."""
    if name in BENCHMARKS:
        return name
    # Case-insensitive fallback so e.g. ``macross run fmradio`` works.
    matches = [key for key in BENCHMARKS if key.lower() == name.lower()]
    if len(matches) == 1:
        return matches[0]
    raise KeyError(
        f"unknown benchmark {name!r}; available: {sorted(BENCHMARKS)}")


def _populate() -> None:
    """Import app modules for their registration side effects."""
    from . import (  # noqa: F401
        audiobeam,
        beamformer,
        bitonic,
        channelvocoder,
        dct,
        des,
        fft,
        filterbank,
        fmradio,
        matmul,
        matmul_block,
        mp3decoder,
        radar,
        running_example,
        stream,
        vocoder,
    )
    BENCHMARKS.setdefault("RunningExample", running_example.build)


_populate()
