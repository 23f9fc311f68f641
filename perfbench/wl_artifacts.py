"""Workload ``artifacts``: regenerate every registered paper artifact.

Runs all of ``repro.experiments.registry.EXPERIMENTS`` serially from cold
caches in a fresh process, as ``python -m repro all`` does: the cost of
reproducing the paper. The inputs are fixed by the paper, so the seed
does not change them. Memsys-bound (``fig8-measured`` and
``fig9-managed`` dominate); bypasses the pool and serve.

Each artifact's ``data`` is checked against the reference recorded in
``reference/artifacts.json`` (``python3 perfbench/record_reference.py``
rewrites it) at a relative tolerance of 1e-9.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from pathlib import Path

import numpy as np

from repro.core import dse
from repro.experiments.registry import EXPERIMENTS
from repro.util import alloctune

REFERENCE = Path(__file__).resolve().parent / "reference" / "artifacts.json"
TINY = ("table1", "fig4", "fig10", "x3a-governor")
RTOL = 1e-9
ATOL = 1e-15


def flatten(value, prefix: str = "") -> dict:
    """Leaf path -> JSON scalar for an artifact's ``data`` mapping."""
    out: dict = {}
    if isinstance(value, dict) or hasattr(value, "items"):
        for key, item in value.items():
            out.update(flatten(item, f"{prefix}/{key}"))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            out.update(flatten(item, f"{prefix}[{i}]"))
    elif isinstance(value, np.ndarray):
        out[f"{prefix}.shape"] = list(value.shape)
        for i, item in enumerate(value.ravel().tolist()):
            out[f"{prefix}[{i}]"] = item
    elif isinstance(value, (bool, np.bool_)):
        out[prefix] = bool(value)
    elif isinstance(value, (int, np.integer)):
        out[prefix] = int(value)
    elif isinstance(value, (float, np.floating)):
        out[prefix] = float(value)
    elif value is None or isinstance(value, str):
        out[prefix] = value
    else:
        out[prefix] = repr(value)
    return out


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b or abs(a - b) <= ATOL + RTOL * abs(b)
    return a == b


def mismatches(got: dict, ref: dict) -> list[str]:
    """Leaf paths where *got* differs from *ref* (missing keys count)."""
    bad = sorted(set(got) ^ set(ref))
    bad += [k for k in got if k in ref and not _close(got[k], ref[k])]
    return bad


def regenerate(names) -> dict[str, dict]:
    """Flattened ``data`` of each named artifact (reference recording)."""
    return {name: flatten(EXPERIMENTS[name]().data) for name in names}


class Workload:
    pool = None

    def prepare(self, seed: int, size: str) -> None:
        self.names = list(EXPERIMENTS) if size == "full" else list(TINY)
        self.reference = json.loads(REFERENCE.read_text())

    def build(self) -> None:
        # The same start-up ``python -m repro all`` performs.
        dse.set_default_engine("tensor")
        alloctune.retain_freed_heap()

    def run(self, recorder=None):
        span = recorder.span if recorder is not None else (
            lambda _layer: contextlib.nullcontext())
        self.results, self.errors, self.times = {}, {}, {}
        for name in self.names:
            start = time.perf_counter()
            try:
                with span("experiments"):
                    self.results[name] = EXPERIMENTS[name]()
            except Exception as exc:  # reported as a wrong artifact
                self.errors[name] = repr(exc)
            self.times[name] = time.perf_counter() - start
        return None  # one operation: the whole regeneration

    def check(self) -> tuple[int, int, int]:
        """``(attempted, failed, wrong)``: an artifact that raised, or
        whose data differs from the reference, is failed and wrong."""
        failed = 0
        for name in self.names:
            if name in self.errors or name not in self.reference:
                failed += 1
            elif mismatches(
                flatten(self.results[name].data), self.reference[name]
            ):
                failed += 1
        return len(self.names), failed, failed

    def layer_metrics(self) -> dict[str, float]:
        return {f"artifact.{n}_s": t for n, t in self.times.items()}

    def close(self) -> None:
        pass
