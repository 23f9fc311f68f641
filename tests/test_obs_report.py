"""Tests for ``python -m repro obs report``.

Covers the where-did-the-time-go report over both artifact shapes (run
manifest JSON, sampler JSONL) and the subcommand's exit codes.
"""

from __future__ import annotations

import json

from repro.__main__ import main as cli_main
from repro.obs.report import render_report


# ----------------------------------------------------------------------
# obs report
# ----------------------------------------------------------------------
class TestReport:
    def test_manifest_report(self, tmp_path):
        manifest = {
            "manifest_version": 1,
            "command": "check_perf --quick",
            "created_unix": 1700000000.0,
            "git": "abc1234",
            "wall_times_s": {"total": 2.0, "fig8": 1.5},
            "metrics": {
                "gauges": {"proc.rss_bytes": 64 * 1024 * 1024},
                "histograms": {
                    "thermal.solve_seconds": {
                        "count": 10,
                        "total": 1.5,
                    },
                    "noc.run_seconds": {"count": 5, "total": 0.5},
                },
            },
            "caches": {"eval": {"hits": 9, "misses": 1}},
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        text = render_report(str(path))
        assert "check_perf --quick" in text
        assert "thermal.solve_seconds" in text
        # Largest histogram leads the where-did-time-go table.
        assert text.index("thermal.solve_seconds") < text.index(
            "noc.run_seconds"
        )
        assert "75.0%" in text  # 1.5 of 2.0 total histogram seconds
        assert "90.0%" in text  # cache hit rate
        assert "64.0 MiB" in text

    def test_shares_are_of_total_wall_time(self, tmp_path):
        manifest = {
            "manifest_version": 1,
            "wall_times_s": {"total": 2.0, "fig8": 1.5, "fig7": 0.5},
            "metrics": {
                "histograms": {
                    "thermal.solve_seconds": {"count": 4, "total": 0.5},
                },
            },
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        rows = {
            line.split()[0]: line.split()[-1]
            for line in render_report(str(path)).splitlines()
            if line.startswith("  ")
        }
        assert rows["total"] == "100.0%"
        assert rows["fig8"] == "75.0%"
        assert rows["fig7"] == "25.0%"
        # Histogram shares are of wall time too, not of their own sum.
        assert rows["thermal.solve_seconds"] == "25.0%"

    def test_serve_manifest_has_no_share_column(self, tmp_path, capsys):
        # A serve manifest records no run wall time, and its histograms
        # overlap: request latencies of concurrent requests add up, and
        # each contains its batch's time. No share can be right.
        path = tmp_path / "serve.json"
        assert cli_main(
            ["serve", "--serve-requests", "8", "--metrics-out", str(path)]
        ) == 0
        capsys.readouterr()
        assert "total" not in json.loads(path.read_text())["wall_times_s"]
        lines = render_report(str(path)).splitlines()
        start = lines.index("where the time went:") + 1
        end = start
        while end < len(lines) and lines[end].startswith("  "):
            end += 1
        table = lines[start:end]
        assert table[0].split() == ["histogram", "count", "total", "mean"]
        names = {row.split()[0] for row in table[1:]}
        assert {
            "serve.batch_seconds", "serve.request_latency_seconds"
        } <= names
        assert not any("%" in row for row in table)

    def test_jsonl_report_folds_intervals(self, tmp_path):
        records = [
            {
                "t": 1.0,
                "elapsed_s": 1.0,
                "interval_s": 1.0,
                "sample": 1,
                "counters": {"serve.requests": 10},
                "gauges": {"proc.rss_bytes": 1024.0},
                "histograms": {"lat": {"count": 10, "total": 0.1}},
            },
            {
                "t": 2.0,
                "elapsed_s": 2.0,
                "interval_s": 1.0,
                "sample": 2,
                "counters": {"serve.requests": 5},
                "gauges": {"proc.rss_bytes": 2048.0},
                "histograms": {"lat": {"count": 5, "total": 0.2}},
            },
        ]
        path = tmp_path / "metrics.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )
        text = render_report(str(path))
        assert "samples  2" in text
        assert "15" in text  # summed counter
        assert "peak proc.rss_bytes  2.0 KiB" in text

    def test_report_cli_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"manifest_version": 1}))
        assert cli_main(["obs", "report", str(path)]) == 0
        assert "run report" in capsys.readouterr().out
        assert cli_main(["obs", "report", str(tmp_path / "nope.json")]) == 2
