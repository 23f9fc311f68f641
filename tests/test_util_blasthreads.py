"""The process-wide OpenBLAS thread cap around the thermal transforms."""

import ctypes
import os
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.thermal.grid import ThermalGrid
from repro.util import blasthreads
from repro.util.blasthreads import SINGLE_THREAD_MNK, single_blas_thread

THREADED_MNK = SINGLE_THREAD_MNK + 1


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
    with single_blas_thread(THREADED_MNK):
        assert GET_THREADS() == 1
        with single_blas_thread(THREADED_MNK):
            assert GET_THREADS() == 1
        assert GET_THREADS() == 1
    assert GET_THREADS() == before


@needs_openblas
def test_concurrent_blocks_never_lose_the_restore():
    before = GET_THREADS()
    uncapped = []

    def worker():
        for _ in range(300):
            with single_blas_thread(THREADED_MNK):
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


@pytest.fixture
def setter_calls(monkeypatch):
    """Counts the cap's calls to OpenBLAS's thread setter (stubbed, so
    this runs whatever BLAS numpy links)."""
    calls = []

    def setter(n):
        calls.append(n)
        return 2

    monkeypatch.setattr(blasthreads._CAP, "_setter", setter)
    monkeypatch.setattr(blasthreads._CAP, "_resolved", True)
    return calls


def test_gemms_openblas_runs_unthreaded_skip_the_setter(setter_calls):
    with single_blas_thread(SINGLE_THREAD_MNK):
        pass
    assert setter_calls == []
    with single_blas_thread(THREADED_MNK):
        pass
    assert setter_calls == [1, 2]


def _exercise(grid):
    shape = (grid.stack.n_layers, grid.ny, grid.nx)
    maps = np.random.default_rng(3).random(shape) * 1e-3
    grid.solve(maps)
    grid.solve_batch(maps[None])
    steady = grid.steady_modes(maps)
    modes = grid.to_modes(maps + grid.stack.ambient_c)
    grid.advance(modes, steady, 0.01, 5, watch=2)


def test_default_grid_never_sets_the_thread_count(setter_calls):
    # 22 x 66 x 66 = 95,832: every transform OpenBLAS runs unthreaded.
    _exercise(ThermalGrid(66.0, 22.0))
    assert setter_calls == []


def test_grid_above_the_bound_still_caps(setter_calls):
    # 66 x 66 x 66 = 287,496: large enough to thread.
    grid = ThermalGrid(66.0, 22.0, nx=66, ny=66)
    _exercise(grid)
    # One set and one restore per transform block: solve and solve_batch
    # two each, steady_modes, to_modes and advance one each.
    assert setter_calls == [1, 2] * 7


_FORKED_GOVERNED_RUN = textwrap.dedent("""
    import os
    from repro.core.thermal_governor import ThermalGovernor, ThermalPhase
    from repro.thermal.analysis import ThermalModel
    from repro.thermal.bench import HOT_CONFIG
    from repro.workloads.catalog import get_application

    governor = ThermalGovernor(thermal=ThermalModel())
    phases = [
        ThermalPhase(get_application("MaxFlops"), 0.5),
        ThermalPhase(get_application("CoMD"), 0.27),
    ]
    pid = os.fork()
    if pid == 0:
        governor.run(phases, HOT_CONFIG)
        print(len(os.listdir("/proc/self/task")), flush=True)
        os._exit(0)
    os.waitpid(pid, 0)
""")


@needs_openblas
@pytest.mark.skipif(
    not (hasattr(os, "fork") and os.path.isdir("/proc/self/task")),
    reason="needs fork and /proc/self/task",
)
def test_forked_child_runs_a_governed_schedule_on_one_thread():
    """A child forked after the model is built, as a fork-started pool
    worker is, starts with no OpenBLAS pool; a governed schedule on the
    default grid must not bring one back."""
    package = os.path.dirname(os.path.dirname(blasthreads.__file__))
    path = [os.path.dirname(package), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", _FORKED_GOVERNED_RUN],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert out.stdout.split() == ["1"]
