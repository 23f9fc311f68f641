"""The process-wide OpenBLAS thread cap around the thermal transforms."""

import ctypes
import sys
import threading
import time

import pytest

from repro.util.blasthreads import single_blas_thread


def _thread_count_getter():
    """numpy's OpenBLAS thread-count getter, or None where unreachable."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for name in (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.argtypes = ()
            getter.restype = ctypes.c_int
            return getter
    return None


GET_THREADS = _thread_count_getter()
needs_openblas = pytest.mark.skipif(
    GET_THREADS is None, reason="numpy is not linked to a reachable OpenBLAS"
)


@needs_openblas
def test_nested_blocks_cap_and_restore():
    before = GET_THREADS()
    with single_blas_thread():
        assert GET_THREADS() == 1
        with single_blas_thread():
            assert GET_THREADS() == 1
        assert GET_THREADS() == 1
    assert GET_THREADS() == before


@needs_openblas
def test_concurrent_blocks_never_lose_the_restore():
    before = GET_THREADS()
    uncapped = []

    def worker():
        for _ in range(300):
            with single_blas_thread():
                time.sleep(0)  # let another thread enter or leave
                if GET_THREADS() != 1:
                    uncapped.append(GET_THREADS())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert uncapped == []
    assert GET_THREADS() == before
