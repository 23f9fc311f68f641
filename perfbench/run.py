"""The repository's benchmark: three seeded workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {artifacts,serve,plan,all} \\
        --seed N --seconds S --trace {0,1}

Each repetition runs in a fresh process (``worker.py``), so set-up and
caches start cold every time. Repetitions with seeds derived from
``--seed`` run back to back until ``--seconds`` have passed (at least
three, or one untraced/traced pair). Outputs are checked after each
timed window.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

``setup_s``
    process start until the workload is ready (imports, model and grid
    construction, pool spawn; input generation excluded), median over
    the repetitions.
``peak_rss_mb``
    peak resident memory of the process plus its pool workers, median.
``p50_ms``
    median latency of one operation, pooled over the repetitions. For
    ``serve`` an operation is one request timed from its due time at the
    rated load (``serve_p50_ms``; a request not answered ok is charged
    at least its 250 ms deadline). For ``artifacts`` it is the
    regeneration of every artifact (``artifacts_s``) and for ``plan``
    the fleet sweep plus the governed schedule (``plan_s``), one per
    repetition. Serve's mean and tail latencies are per-layer metrics
    (``serve.mean_ms``, ``serve.p90_ms``, ``serve.p99_ms``): on a shared
    2-vCPU host they varied between runs by about as much as the
    largest bound this benchmark may set.

``--trace 1`` alternates untraced and traced repetitions on the same
inputs and reports the per-layer metrics of ``layers.PER_LAYER``: span
self times and counts from the traced repetitions (``layers.py``),
workload-reported figures and set-up splits from the untraced ones, and
the tracing overhead as traced over untraced wall time minus one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("artifacts", "serve", "plan")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "p50_ms": "ms"}
# Workload-specific names of the end-to-end figures, printed alongside.
ALIASES = {
    "artifacts": (("artifacts_s", "p50_ms", 1e-3, "s"),),
    "serve": (("serve_p50_ms", "p50_ms", 1.0, "ms"),),
    "plan": (("plan_s", "p50_ms", 1e-3, "s"),),
}
MIN_REPS = 3
MAX_REPS = 60
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, size: str, traced: bool) -> dict:
    """Run one repetition in a fresh process; returns its report with
    ``import_s`` and ``setup_s`` measured from the spawn."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if traced:
        cmd.append("--traced")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} repetition failed (exit {proc.returncode}):\n"
            f"{proc.stderr[-4000:]}"
        )
    rep = json.loads(lines[-1])
    rep["import_s"] = rep["t_imported"] - t_spawn
    rep["setup_s"] = rep["t_ready"] - t_spawn - rep["inputs_s"]
    return rep


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(reps: list[dict]) -> dict[str, float]:
    ops = [ms for r in reps for ms in r["ops_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "p50_ms": percentile(ops, 50),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        # Span metrics: the traced repetitions' mean (a mean keeps the
        # self-time identity exact).
        values = [r["spans"][name] for r in traced if name in r["spans"]]
        if values:
            out[name] = statistics.fmean(values)
            continue
        values = [r["layer"][name] for r in untraced if name in r["layer"]]
        if values:
            out[name] = statistics.median(values)
    out["setup.import_s"] = statistics.median(r["import_s"] for r in untraced)
    out["setup.build_s"] = statistics.median(r["build_s"] for r in untraced)
    out["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1.0
    )
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """All repetitions of one workload; returns the result object."""
    reps: list[dict] = []
    start = time.monotonic()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        sub_seed = seed * 1000 + (i // 2 if trace else i)
        reps.append(spawn(workload, sub_seed, size, traced))
        i += 1
        done = (i >= (2 if trace else MIN_REPS)
                and time.monotonic() - start >= seconds)
        if (done or i >= MAX_REPS) and not (trace and i % 2):
            break
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    wrong = sum(r["wrong"] for r in reps)
    if trace:
        values = per_layer([r for r in reps if "spans" not in r],
                           [r for r in reps if "spans" in r])
        units = PER_LAYER
    else:
        values = end_to_end(reps)
        units = END_TO_END
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
        "repetitions": len(reps),
    }


def describe(workload: str, result: dict) -> list[str]:
    """Human-readable lines: every metric with its unit."""
    lines = [f"[{workload}] {result['repetitions']} repetitions, "
             f"failed_frac = {result['failed'] / result['attempted']:.4g} "
             f"({result['failed']} of {result['attempted']})"]
    metrics = result["metrics"]
    for name, m in metrics.items():
        lines.append(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}")
    for alias, source, scale, unit in ALIASES[workload]:
        if source in metrics:
            value = metrics[source]["value"] * scale
            lines.append(f"[{workload}] {alias} = {value:.6g} {unit}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark's workloads and print their metrics."
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace)
            )
            print("\n".join(describe(name, results[name])), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
        final = {k: final[k] for k in ("correct", "attempted", "failed",
                                       "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
