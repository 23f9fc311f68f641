"""Run reports and benchmark regression diffs (``python -m repro obs``).

Two subcommands turn the observability artifacts the other layers
produce into answers:

``python -m repro obs report <manifest.json | metrics.jsonl>``
    A human-readable "where did the time go" report. A run manifest
    (:mod:`repro.obs.manifest`) renders its wall times, timing
    histograms, cache hit rates and memory gauges; a
    :class:`~repro.obs.export.PeriodicSampler` JSONL stream is folded
    back into cumulative totals first (counter/histogram deltas sum,
    gauges keep their last reading, RSS reports its series peak).

``python -m repro obs diff <a> <b>`` / ``obs diff --dir <dir>``
    Regression comparison of pytest-benchmark artifacts
    (``BENCH_pr*.json``, compact or legacy — anything
    :func:`repro.util.benchjson.load_summary` reads). Two files compare
    their common benchmarks' mean times against a configurable
    ``--threshold`` ratio; a directory compares the whole trajectory
    pairwise in PR order, *warning* (never crashing) on missing PR
    numbers or disjoint benchmark sets. Exit status is the number of
    regressions found (0 = healthy), which is what lets CI gate on the
    freshly produced quick-smoke bench output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import Iterable, Mapping, Sequence

from repro.util.benchjson import load_summary

__all__ = [
    "render_report",
    "diff_benchmarks",
    "diff_trajectory",
    "main",
]

_BENCH_RE = re.compile(r"BENCH_pr(\d+)\.json$")


# ----------------------------------------------------------------------
# Formatting helpers
# ----------------------------------------------------------------------
def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f} ms"
    return f"{value * 1e6:.1f} us"


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{value:.1f} GiB"


def _table(rows: Sequence[Sequence[str]], indent: str = "  ") -> list[str]:
    """Align *rows* into fixed-width columns (first column left, rest
    right)."""
    if not rows:
        return []
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(rows[0]))
    ]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
        lines.append(indent + "  ".join(cells).rstrip())
    return lines


def _hist_rows(
    histograms: Mapping[str, Mapping], wall_total: float | None = None
) -> list[list[str]]:
    """Timing-histogram table rows, largest total first.

    Shares are of *wall_total* (the run's wall time) when given, else
    of the histograms' own sum.
    """
    entries = []
    for name, hist in histograms.items():
        count = int(hist.get("count", 0))
        total = float(hist.get("total", 0.0))
        entries.append((name, count, total))
    entries.sort(key=lambda e: -e[2])
    grand_total = wall_total or sum(e[2] for e in entries) or 1.0
    rows = [["histogram", "count", "total", "mean", "share"]]
    for name, count, total in entries:
        mean = total / count if count else 0.0
        rows.append(
            [
                name,
                str(count),
                _fmt_seconds(total),
                _fmt_seconds(mean),
                f"{100.0 * total / grand_total:.1f}%",
            ]
        )
    return rows


def _memory_lines(gauges: Mapping[str, float]) -> list[str]:
    lines = []
    for name in sorted(gauges):
        if name.endswith("rss_bytes"):
            lines.append(f"  {name}  {_fmt_bytes(gauges[name])}")
    return lines


# ----------------------------------------------------------------------
# `obs report`
# ----------------------------------------------------------------------
def _report_manifest(manifest: Mapping, path: str) -> str:
    lines = [f"run report: {path}"]
    command = manifest.get("command")
    if command:
        lines.append(f"  command  {command}")
    created = manifest.get("created_unix")
    if created:
        stamp = time.strftime(
            "%Y-%m-%d %H:%M:%S UTC", time.gmtime(float(created))
        )
        lines.append(f"  created  {stamp}")
    git = manifest.get("git")
    if git:
        lines.append(f"  git      {git}")

    wall_times = manifest.get("wall_times_s") or {}
    # Shares are of the run's wall time: the "total" row when the
    # manifest has one (summing it with the rows it covers would halve
    # every share), else the rows' own sum.
    wall_total = wall_times.get("total")
    if wall_times:
        lines.append("wall times:")
        total = wall_total or sum(wall_times.values()) or 1.0
        rows = [
            [name, _fmt_seconds(float(sec)), f"{100.0 * sec / total:.1f}%"]
            for name, sec in sorted(
                wall_times.items(), key=lambda kv: -kv[1]
            )
        ]
        lines.extend(_table(rows))

    metrics = manifest.get("metrics") or {}
    histograms = metrics.get("histograms") or {}
    if histograms:
        lines.append("where the time went:")
        lines.extend(_table(_hist_rows(histograms, wall_total)))

    caches = manifest.get("caches") or {}
    if caches:
        lines.append("caches:")
        rows = []
        for name, stats in sorted(caches.items()):
            if not isinstance(stats, Mapping):
                continue
            hits = int(stats.get("hits", 0))
            misses = int(stats.get("misses", 0))
            lookups = hits + misses
            rate = 100.0 * hits / lookups if lookups else 0.0
            rows.append(
                [name, f"{hits} hits", f"{misses} misses", f"{rate:.1f}%"]
            )
        lines.extend(_table(rows))

    gauges = metrics.get("gauges") or {}
    memory = _memory_lines(gauges)
    if memory:
        lines.append("memory:")
        lines.extend(memory)

    slo = (manifest.get("sections") or {}).get("serve", {}).get("slo")
    if slo:
        lines.append("serve SLO window:")
        lines.append(
            f"  requests {slo.get('requests', 0)}  "
            f"p50 {_fmt_seconds(float(slo.get('p50_latency_s', 0.0)))}  "
            f"p99 {_fmt_seconds(float(slo.get('p99_latency_s', 0.0)))}"
        )
        lines.append(
            f"  shed {100.0 * float(slo.get('shed_rate', 0.0)):.2f}%  "
            f"errors {100.0 * float(slo.get('error_rate', 0.0)):.2f}%  "
            f"budget remaining "
            f"{100.0 * float(slo.get('budget_remaining', 1.0)):.1f}%"
        )
    return "\n".join(lines)


def _fold_jsonl(records: Iterable[Mapping]) -> dict:
    """Accumulate sampler interval-diffs back into cumulative totals."""
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    peak_gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    n = 0
    elapsed = 0.0
    for record in records:
        n += 1
        elapsed = max(elapsed, float(record.get("elapsed_s", 0.0)))
        for name, value in (record.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in (record.get("gauges") or {}).items():
            gauges[name] = value
            if name.endswith("rss_bytes"):
                peak_gauges[name] = max(
                    peak_gauges.get(name, float("-inf")), value
                )
        for name, hist in (record.get("histograms") or {}).items():
            slot = histograms.get(name)
            if slot is None:
                histograms[name] = {
                    "count": int(hist.get("count", 0)),
                    "total": float(hist.get("total", 0.0)),
                }
            else:
                slot["count"] += int(hist.get("count", 0))
                slot["total"] += float(hist.get("total", 0.0))
    gauges.update({f"peak {k}": v for k, v in peak_gauges.items()})
    return {
        "samples": n,
        "elapsed_s": elapsed,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def _report_jsonl(records: list[Mapping], path: str) -> str:
    folded = _fold_jsonl(records)
    lines = [
        f"metrics export report: {path}",
        f"  samples  {folded['samples']} covering "
        f"{_fmt_seconds(folded['elapsed_s'])}",
    ]
    if folded["histograms"]:
        lines.append("where the time went:")
        lines.extend(_table(_hist_rows(folded["histograms"])))
    counters = folded["counters"]
    if counters:
        lines.append("counters:")
        rows = [
            [name, str(int(value))]
            for name, value in sorted(
                counters.items(), key=lambda kv: -kv[1]
            )[:20]
        ]
        lines.extend(_table(rows))
    memory = _memory_lines(folded["gauges"])
    if memory:
        lines.append("memory:")
        lines.extend(memory)
    return "\n".join(lines)


def render_report(path: str) -> str:
    """The report text for a manifest JSON or a sampler JSONL file."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.read(1)
        fh.seek(0)
        if not first:
            return f"run report: {path}\n  (empty file)"
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{") and "\n{" not in stripped.rstrip():
        document = json.loads(text)
        if "manifest_version" in document:
            return _report_manifest(document, path)
        # A single-line JSONL export degenerates to one record.
        return _report_jsonl([document], path)
    records = [
        json.loads(line) for line in text.splitlines() if line.strip()
    ]
    return _report_jsonl(records, path)


# ----------------------------------------------------------------------
# `obs diff`
# ----------------------------------------------------------------------
def diff_benchmarks(
    path_a: str,
    path_b: str,
    threshold: float = 1.5,
    min_seconds: float = 1e-5,
) -> tuple[list[str], int]:
    """Compare two benchmark files; returns (report lines, regressions).

    A common benchmark regresses when ``mean_b / mean_a > threshold``
    and the absolute slowdown exceeds *min_seconds* (micro-benchmarks
    under the floor are noise, not signal). Benchmarks present in only
    one file are warned about, never fatal.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must be > 1.0")
    summary_a = load_summary(path_a)
    summary_b = load_summary(path_b)
    lines = [
        f"bench diff: {os.path.basename(path_a)} -> "
        f"{os.path.basename(path_b)}  (threshold {threshold:.2f}x)"
    ]
    regressions = 0
    common = sorted(set(summary_a) & set(summary_b))
    rows = []
    for name in common:
        mean_a = summary_a[name].get("mean_s")
        mean_b = summary_b[name].get("mean_s")
        if not mean_a or not mean_b:
            rows.append([name, "-", "-", "-", "no data"])
            continue
        ratio = mean_b / mean_a
        verdict = "ok"
        if (
            ratio > threshold
            and (mean_b - mean_a) > min_seconds
        ):
            verdict = "REGRESSION"
            regressions += 1
        elif ratio < 1.0 / threshold:
            verdict = "improved"
        rows.append(
            [
                name,
                _fmt_seconds(mean_a),
                _fmt_seconds(mean_b),
                f"{ratio:.2f}x",
                verdict,
            ]
        )
    if rows:
        lines.extend(
            _table([["benchmark", "before", "after", "ratio", ""]] + rows)
        )
    else:
        lines.append("  (no common benchmarks)")
    only_a = sorted(set(summary_a) - set(summary_b))
    only_b = sorted(set(summary_b) - set(summary_a))
    if only_a:
        lines.append(
            f"  warning: {len(only_a)} benchmark(s) only in "
            f"{os.path.basename(path_a)}: {', '.join(only_a[:3])}"
            + ("..." if len(only_a) > 3 else "")
        )
    if only_b:
        lines.append(
            f"  warning: {len(only_b)} benchmark(s) only in "
            f"{os.path.basename(path_b)}: {', '.join(only_b[:3])}"
            + ("..." if len(only_b) > 3 else "")
        )
    return lines, regressions


def trajectory_files(directory: str) -> tuple[list[tuple[int, str]], list[str]]:
    """``BENCH_pr<N>.json`` files in *directory*, PR-ordered, plus gap
    warnings for missing PR numbers inside the observed range."""
    found = []
    for entry in sorted(os.listdir(directory)):
        match = _BENCH_RE.fullmatch(entry)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, entry)))
    found.sort()
    warnings = []
    if found:
        numbers = [n for n, _ in found]
        missing = sorted(set(range(numbers[0], numbers[-1] + 1)) - set(numbers))
        if missing:
            warnings.append(
                "warning: trajectory gap — no BENCH_pr{}.json".format(
                    "/".join(str(n) for n in missing)
                )
            )
    return found, warnings


def diff_trajectory(
    directory: str, threshold: float = 1.5, min_seconds: float = 1e-5
) -> tuple[list[str], int]:
    """Pairwise-consecutive diff of a whole ``BENCH_pr*`` directory."""
    found, warnings = trajectory_files(directory)
    lines = [f"bench trajectory: {directory} ({len(found)} file(s))"]
    lines.extend(f"  {w}" for w in warnings)
    if len(found) < 2:
        lines.append("  (need at least two BENCH_pr*.json files to diff)")
        return lines, 0
    regressions = 0
    for (_, path_a), (_, path_b) in zip(found, found[1:]):
        try:
            pair_lines, pair_regressions = diff_benchmarks(
                path_a, path_b, threshold, min_seconds
            )
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            lines.append(
                f"  warning: cannot diff {os.path.basename(path_a)} -> "
                f"{os.path.basename(path_b)}: {exc}"
            )
            continue
        lines.extend(pair_lines)
        regressions += pair_regressions
    return lines, regressions


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro obs ...`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description=(
            "Observability reports: where-did-time-go from manifests/"
            "metric exports, regression diffs over BENCH_*.json files."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    report = sub.add_parser(
        "report", help="render a run manifest or metrics JSONL export"
    )
    report.add_argument(
        "path", help="manifest JSON or PeriodicSampler JSONL file"
    )

    diff = sub.add_parser(
        "diff",
        help=(
            "compare benchmark files; exit status = regressions found"
        ),
    )
    diff.add_argument(
        "paths",
        nargs="*",
        help=(
            "two BENCH_*.json files, or one directory holding a "
            "BENCH_pr*.json trajectory"
        ),
    )
    diff.add_argument(
        "--dir",
        dest="directory",
        default=None,
        help="diff the whole BENCH_pr*.json trajectory in a directory",
    )
    diff.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        metavar="RATIO",
        help=(
            "mean-time ratio above which a benchmark counts as a "
            "regression (default 1.5)"
        ),
    )
    diff.add_argument(
        "--min-seconds",
        type=float,
        default=1e-5,
        metavar="S",
        help=(
            "ignore slowdowns smaller than this many absolute seconds "
            "(default 1e-5)"
        ),
    )
    args = parser.parse_args(argv)

    if args.subcommand == "report":
        try:
            print(render_report(args.path))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"obs report: cannot read {args.path}: {exc}",
                  file=sys.stderr)
            return 2
        return 0

    # diff
    directory = args.directory
    paths = list(args.paths)
    if directory is None and len(paths) == 1 and os.path.isdir(paths[0]):
        directory, paths = paths[0], []
    if directory is not None:
        if paths:
            parser.error("--dir and explicit file paths are exclusive")
        lines, regressions = diff_trajectory(
            directory, args.threshold, args.min_seconds
        )
    elif len(paths) == 2:
        try:
            lines, regressions = diff_benchmarks(
                paths[0], paths[1], args.threshold, args.min_seconds
            )
        except (OSError, json.JSONDecodeError) as exc:
            print(f"obs diff: {exc}", file=sys.stderr)
            return 2
    else:
        parser.error(
            "diff takes two benchmark files, or one directory / --dir"
        )
        return 2  # unreachable; parser.error raises
    print("\n".join(lines))
    if regressions:
        print(f"obs diff: {regressions} regression(s) found",
              file=sys.stderr)
    return regressions


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
