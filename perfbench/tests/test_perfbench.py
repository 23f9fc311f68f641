"""Tests of the benchmark itself: smoke runs, output checks, trace arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
from layers import Recorder, Span, self_times  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run_is_correct(workload):
    result = run.run_workload(workload, seed=3, seconds=0, trace=False,
                              size="tiny")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert metric["unit"] == run.END_TO_END[name]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload):
    result = run.run_workload(workload, seed=3, seconds=0, trace=True,
                              size="tiny")
    assert result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(layers.PER_LAYER)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total + metrics["unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], abs=1e-9)
    assert metrics["trace.wall_s"] > 0


def test_self_times_nested_and_concurrent_sum_to_wall():
    spans = [
        Span(0, "fleet.sweep", 1.0, 5.0, None, True),
        Span(1, "pool.run", 2.0, 4.0, 0, True),
        Span(2, "serve", 0.5, 6.0, None, False),   # async request span
        Span(3, "node.grid", 4.5, 5.5, None, True),  # another thread
        Span(4, "node.point", 7.0, 12.0, None, True),  # clipped at t1
    ]
    selfs, unattributed = self_times(spans, 0.0, 10.0)
    assert selfs == pytest.approx({
        "fleet.sweep": 1.0 + 0.5,  # minus its child and the later thread
        "pool.run": 2.0,
        "node.grid": 1.0,
        "serve": 0.5 + 0.5,  # only where no synchronous span is open
        "node.point": 3.0,
    })
    assert unattributed == pytest.approx(0.5 + 1.0)
    assert sum(selfs.values()) + unattributed == pytest.approx(10.0,
                                                               abs=1e-12)


def test_recorder_spans_record_parents_and_threads():
    rec = Recorder()
    rec.active = True
    with rec.span("governor"):
        with rec.span("thermal.transient"):
            pass

        def in_thread():
            with rec.span("pool.run"):
                pass

        worker = threading.Thread(target=in_thread)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    by_layer = {s.layer: s for s in rec.spans}
    assert by_layer["thermal.transient"].parent == by_layer["governor"].id
    assert by_layer["governor"].parent is None
    assert by_layer["pool.run"].parent is None  # its own thread's stack


def test_corrupted_reference_or_raising_artifact_counts_as_wrong(
        monkeypatch):
    import wl_artifacts

    def boom():
        raise RuntimeError("artifact failed")

    monkeypatch.setitem(wl_artifacts.EXPERIMENTS, "fig10", boom)
    wl = wl_artifacts.Workload()
    wl.prepare(0, "tiny")
    wl.names = ["table1", "fig4", "fig10"]
    wl.build()
    wl.run()
    # wrong > 0 is what makes the result's ``correct`` false.
    assert wl.check() == (3, 1, 1)
    ref = json.loads(json.dumps(wl.reference))
    key = next(k for k, v in ref["fig4"].items()
               if isinstance(v, float) and v != 0.0)
    ref["fig4"][key] *= 1.0 + 1e-6
    wl.reference = ref
    assert wl.check() == (3, 2, 2)


def test_tolerance_accepts_rounding_but_not_changes():
    import wl_artifacts

    ref = {"a": 1.0, "b": [1, 2], "c": "x", "d": float("nan")}
    assert wl_artifacts.mismatches(dict(ref, a=1.0 + 1e-12), ref) == []
    assert wl_artifacts.mismatches(dict(ref, a=1.0 + 1e-8), ref) == ["a"]
    assert wl_artifacts.mismatches({"a": 1.0}, ref) == ["b", "c", "d"]


def test_wrong_or_unanswered_serve_request_counts_as_failed():
    import wl_serve
    from repro.serve.requests import FAILED, SHED_QUEUE_FULL, PointResult

    wl = wl_serve.Workload()
    wl.prepare(5, "tiny")
    wl.build()
    try:
        wl.run()
    finally:
        wl.close()
    attempted, failed, wrong = wl.check()
    assert (failed, wrong) == (0, 0)
    index = next(i for i, (resp, _, _) in enumerate(wl.records)
                 if isinstance(resp.value, PointResult))
    resp, due, lat = wl.records[index]
    bad = dataclasses.replace(
        resp.value, performance=resp.value.performance * (1 + 1e-12))
    wl.records[index] = (dataclasses.replace(resp, value=bad), due, lat)
    assert wl.check() == (attempted, 1, 1)

    # A failure inside the service is wrong; a shed request only failed,
    # and is charged its deadline as latency.
    failing, shed = [i for i in range(len(wl.records)) if i != index][:2]
    resp, due, lat = wl.records[failing]
    wl.records[failing] = (dataclasses.replace(resp, status=FAILED), due, lat)
    resp, due, _ = wl.records[shed]
    wl.records[shed] = (dataclasses.replace(resp, status=SHED_QUEUE_FULL),
                        due, 0.001)
    assert wl.check() == (attempted, 3, 2)
    latencies = wl._latencies_ms()
    assert latencies[shed] == pytest.approx(wl_serve.DEADLINE_S * 1e3)
    assert max(latencies) < 1e4


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
