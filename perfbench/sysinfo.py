"""Host facts the workloads share: pool size and peak resident memory."""

from __future__ import annotations

import os
from pathlib import Path


def pool_shards() -> int:
    """``nproc - 1`` pool workers, leaving one CPU to the parent."""
    return max(1, (os.cpu_count() or 2) - 1)


def _vm_hwm_kb(pid: str) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _children(pid: int) -> list[str]:
    kids: list[str] = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            kids += task.read_text().split()
        except OSError:
            pass
    return kids


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children.

    Each process's high-water mark (``VmHWM``) is summed, so pages the
    pool workers share with the parent count once per process: an upper
    bound on the peak of the sum. Read it before the pool shuts down.
    """
    pid = os.getpid()
    total = _vm_hwm_kb(str(pid)) + sum(_vm_hwm_kb(k) for k in _children(pid))
    return total / 1024.0
