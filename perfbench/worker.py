"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition so that every
repetition pays start-up from cold (imports, model and grid
construction, pool spawn) and starts with empty caches. It prints one
JSON object: absolute ``time.monotonic()`` stamps (the parent turns them
into set-up times against its own spawn stamp), the timed window's wall
time and operation latencies, peak memory, the output checks, and, for a
traced repetition, the per-layer span metrics.

Usage: ``PYTHONPATH=src python3 perfbench/worker.py --workload serve
--seed 7 [--size tiny] [--traced]``
"""

from __future__ import annotations

import argparse
import importlib
import json
import time

from sysinfo import peak_rss_mb


def program_snapshot(pool):
    """The program's metrics registry merged with the pool workers'
    accumulated shard snapshots."""
    from repro.obs import metrics as obs_metrics

    snap = obs_metrics.snapshot()
    return snap.merge(pool.merged_snapshot()) if pool is not None else snap


def run_once(workload: str, seed: int, size: str, traced: bool) -> dict:
    module = importlib.import_module(f"wl_{workload}")
    t_imported = time.monotonic()
    wl = module.Workload()
    wl.prepare(seed, size)
    t_inputs = time.monotonic()
    wl.build()
    t_ready = time.monotonic()

    recorder = None
    if traced:
        import layers

        recorder = layers.Recorder().install()
    try:
        before = program_snapshot(wl.pool)
        if recorder is not None:
            recorder.active = True
        t0 = time.perf_counter()
        ops_ms = wl.run(recorder)
        t1 = time.perf_counter()
        if recorder is not None:
            recorder.active = False
        delta = program_snapshot(wl.pool).diff(before)
        rss_mb = peak_rss_mb()
    finally:
        wl.close()
        if recorder is not None:
            recorder.uninstall()

    attempted, failed, wrong = wl.check()
    result = {
        "t_imported": t_imported,
        "inputs_s": t_inputs - t_imported,
        "build_s": t_ready - t_inputs,
        "t_ready": t_ready,
        "wall_s": t1 - t0,
        "ops_ms": ops_ms if ops_ms is not None else [(t1 - t0) * 1e3],
        "peak_rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "layer": wl.layer_metrics(),
    }
    if recorder is not None:
        result["spans"] = layers.span_metrics(
            recorder, t0, t1, delta,
            requested_points=result["layer"].get("serve.requested_points", 0),
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_once(args.workload, args.seed, args.size,
                              args.traced)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
