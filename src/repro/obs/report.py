"""Run reports (``python -m repro obs report``).

``python -m repro obs report <manifest.json | metrics.jsonl>`` turns the
observability artifacts the other layers produce into a human-readable
"where did the time go" report. A run manifest
(:mod:`repro.obs.manifest`) renders its wall times, timing histograms,
cache hit rates and memory gauges; a
:class:`~repro.obs.export.PeriodicSampler` JSONL stream is folded back
into cumulative totals first (counter/histogram deltas sum, gauges keep
their last reading, RSS reports its series peak).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Iterable, Mapping, Sequence

__all__ = ["render_report", "main"]


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

    Shares are of *wall_total*, the run's wall time. Without one there
    is no share column: histograms overlap (a request's latency holds
    its batch's time, and concurrent requests' latencies add up past
    the wall time), so their own sum is no denominator.
    """
    entries = []
    for name, hist in histograms.items():
        count = int(hist.get("count", 0))
        total = float(hist.get("total", 0.0))
        entries.append((name, count, total))
    entries.sort(key=lambda e: -e[2])
    rows = [["histogram", "count", "total", "mean"]]
    if wall_total:
        rows[0].append("share")
    for name, count, total in entries:
        mean = total / count if count else 0.0
        row = [name, str(count), _fmt_seconds(total), _fmt_seconds(mean)]
        if wall_total:
            row.append(f"{100.0 * total / wall_total:.1f}%")
        rows.append(row)
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
# CLI
# ----------------------------------------------------------------------
def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro obs ...`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description=(
            "Observability reports: where-did-time-go from manifests "
            "and metric exports."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    report = sub.add_parser(
        "report", help="render a run manifest or metrics JSONL export"
    )
    report.add_argument(
        "path", help="manifest JSON or PeriodicSampler JSONL file"
    )
    args = parser.parse_args(argv)

    try:
        print(render_report(args.path))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"obs report: cannot read {args.path}: {exc}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
