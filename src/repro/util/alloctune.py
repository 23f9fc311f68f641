"""Glibc malloc tuning for tensor-heavy hot loops.

The fused DSE evaluation (:meth:`repro.core.node.NodeModel.evaluate_grid`)
allocates a handful of multi-hundred-KB scratch tensors per call. With
glibc's default ``M_TRIM_THRESHOLD`` (128 KB) every free of those buffers
shrinks the heap back to the OS, so the next call re-faults every page —
nearly doubling the cost of a pass that is otherwise memory-bandwidth
bound. Raising the trim/mmap thresholds once keeps the freed pages in the
process and makes repeated evaluations run at the in-place floor.

This is an explicit, opt-in knob (called by ``python -m repro`` and the
perf harness), not an import side effect: it trades steady-state RSS for
throughput, which is the right trade for sweep workloads but not
something a library should impose on every importer.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import sys

__all__ = ["retain_freed_heap"]

# glibc mallopt parameter numbers (see malloc/malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

TRIM_BYTES = 256 * 1024 * 1024
MMAP_BYTES = 64 * 1024 * 1024

_applied = False


def retain_freed_heap() -> bool:
    """Keep freed large buffers in the process heap (glibc only).

    Raises ``M_TRIM_THRESHOLD`` so frees below :data:`TRIM_BYTES` never
    shrink the heap, and ``M_MMAP_THRESHOLD`` so allocations below
    :data:`MMAP_BYTES` are served from that retained heap instead of
    fresh ``mmap`` regions. Idempotent. Returns ``True`` if the
    thresholds were applied, ``False`` on non-glibc platforms or when
    ``mallopt`` is unavailable — callers need no fallback; everything
    still works, just with colder allocations.
    """
    global _applied
    if _applied:
        return True
    if not sys.platform.startswith("linux"):
        return False
    try:
        name = ctypes.util.find_library("c") or "libc.so.6"
        libc = ctypes.CDLL(name, use_errno=True)
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    ok = bool(mallopt(_M_TRIM_THRESHOLD, TRIM_BYTES))
    ok = bool(mallopt(_M_MMAP_THRESHOLD, MMAP_BYTES)) and ok
    _applied = ok
    return ok
