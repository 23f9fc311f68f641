"""Hold numpy's bundled OpenBLAS to one thread around gemms it would
thread.

OpenBLAS splits a gemm across its thread pool once the product is
large enough, and after each threaded call the pool's workers spin for
a while before they sleep. On a machine with few cores a stream of
mid-sized gemms (the thermal grid's modal transforms at 132 x 132, for
example) can then stall for tens to hundreds of milliseconds while
spinning workers and the calling thread compete for the same CPUs.
The transforms are far too small to gain from threading, so
:func:`single_blas_thread` caps the pool to one thread for the
duration of a block and restores the previous count afterwards.

The cap is only worth its calls where OpenBLAS would thread. OpenBLAS
(``interface/gemm.c``) runs a gemm on the calling thread when ``m * n *
k <= 65536 * GEMM_MULTITHREAD_THRESHOLD`` (4 by default), so
``single_blas_thread(mnk)`` hands back a no-op block when the block's
largest gemm is within that bound. Setting the count is not free:
OpenBLAS's fork handler shuts its pool down in a process that forks
(the parent of a fork-started pool worker) and the pool does not exist
in the child, so there the first call that sets the count re-creates
the pool's worker thread, which spins (20-120 ms of CPU on a 2-vCPU
VM) before it sleeps, beside the caller. Blocks above the bound still
pay that once per fork.

The cap goes through ``openblas_set_num_threads_local`` in the OpenBLAS
numpy links against, reached with :mod:`ctypes` the way
:mod:`repro.util.alloctune` reaches ``mallopt``. Where the symbol is
absent (another BLAS, an older OpenBLAS) the block runs unchanged. The
thread count is process-wide, so nested and concurrent blocks share one
cap: the first to enter sets it and the last to leave restores it.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading

__all__ = ["single_blas_thread"]

# OpenBLAS's SMP_THRESHOLD_MIN times its default GEMM_MULTITHREAD_THRESHOLD:
# a gemm with m * n * k at or below this runs on the calling thread.
SINGLE_THREAD_MNK = 65536 * 4


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
    context manager because it wraps every transform of a large grid."""

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
_NO_CAP = contextlib.nullcontext()


def single_blas_thread(mnk: int) -> contextlib.AbstractContextManager:
    """Context manager running its block with numpy's OpenBLAS capped
    to one thread if its largest gemm, of ``m * n * k`` *mnk*, is one
    OpenBLAS would thread; a no-op block otherwise."""
    return _CAP if mnk > SINGLE_THREAD_MNK else _NO_CAP
