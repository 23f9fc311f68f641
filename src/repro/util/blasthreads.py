"""Hold numpy's bundled OpenBLAS to one thread around small gemms.

OpenBLAS splits a gemm across its thread pool once the product is
large enough, and after each threaded call the pool's workers spin for
a while before they sleep. On a machine with few cores a stream of
mid-sized gemms (the thermal grid's modal transforms at 132 x 132, for
example) can then stall for tens to hundreds of milliseconds while
spinning workers and the calling thread compete for the same CPUs.
The transforms are far too small to gain from threading, so
:func:`single_blas_thread` caps the pool to one thread for the
duration of a block and restores the previous count afterwards.

The cap goes through ``openblas_set_num_threads_local`` in the OpenBLAS
numpy links against, reached with :mod:`ctypes` the way
:mod:`repro.util.alloctune` reaches ``mallopt``. Where the symbol is
absent (another BLAS, an older OpenBLAS) the block runs unchanged. The
thread count is process-wide, so nested and concurrent blocks share one
cap: the first to enter sets it and the last to leave restores it.
"""

from __future__ import annotations

import ctypes
import threading

__all__ = ["single_blas_thread"]


def _resolve_setter():
    try:
        from numpy._core import _multiarray_umath

        setter = ctypes.CDLL(
            _multiarray_umath.__file__
        ).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes = (ctypes.c_int,)
    setter.restype = ctypes.c_int
    return setter


class _SingleBlasThread:
    """Reentrant, thread-safe cap; a class rather than a generator
    context manager because it wraps every thermal solve."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._holders = 0
        self._previous = 0
        self._setter = None
        self._resolved = False

    def __enter__(self) -> None:
        if not self._resolved:
            self._setter = _resolve_setter()
            self._resolved = True
        if self._setter is not None:
            with self._lock:
                if self._holders == 0:
                    self._previous = self._setter(1)
                self._holders += 1

    def __exit__(self, *exc) -> None:
        if self._setter is not None:
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    self._setter(self._previous)


_CAP = _SingleBlasThread()


def single_blas_thread() -> _SingleBlasThread:
    """Context manager running its block with numpy's OpenBLAS capped
    to one thread."""
    return _CAP
