"""Tests for ``python -m repro obs`` reporting and regression diffs.

Covers the where-did-the-time-go report over both artifact shapes (run
manifest JSON, sampler JSONL), the two-file benchmark diff (injected
synthetic regression -> nonzero exit; healthy pair -> zero), and the
whole-directory BENCH_pr* trajectory mode (PR-numbering gaps warn, the
committed repo trajectory stays green under the CI threshold).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.__main__ import main as cli_main
from repro.obs.report import (
    diff_benchmarks,
    diff_trajectory,
    render_report,
    trajectory_files,
)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_bench(path, means: dict[str, float]) -> None:
    payload = {
        "summary": {
            name: {
                "mean_s": mean,
                "stddev_s": mean / 10.0,
                "min_s": mean * 0.9,
                "rounds": 5,
            }
            for name, mean in means.items()
        }
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


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


# ----------------------------------------------------------------------
# obs diff
# ----------------------------------------------------------------------
class TestDiff:
    def test_injected_regression_is_nonzero(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _write_bench(a, {"bench_x": 0.010, "bench_y": 0.020})
        _write_bench(b, {"bench_x": 0.025, "bench_y": 0.019})
        lines, regressions = diff_benchmarks(str(a), str(b))
        assert regressions == 1
        assert any("REGRESSION" in line for line in lines)
        assert cli_main(["obs", "diff", str(a), str(b)]) == 1

    def test_healthy_pair_is_zero(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _write_bench(a, {"bench_x": 0.010})
        _write_bench(b, {"bench_x": 0.011})
        lines, regressions = diff_benchmarks(str(a), str(b))
        assert regressions == 0
        assert cli_main(["obs", "diff", str(a), str(b)]) == 0

    def test_threshold_is_configurable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _write_bench(a, {"bench_x": 0.010})
        _write_bench(b, {"bench_x": 0.018})  # 1.8x
        assert diff_benchmarks(str(a), str(b), threshold=1.5)[1] == 1
        assert diff_benchmarks(str(a), str(b), threshold=2.0)[1] == 0
        with pytest.raises(ValueError):
            diff_benchmarks(str(a), str(b), threshold=1.0)

    def test_sub_floor_slowdowns_are_noise(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _write_bench(a, {"bench_x": 2e-6})
        _write_bench(b, {"bench_x": 8e-6})  # 4x but only 6 us absolute
        assert diff_benchmarks(str(a), str(b))[1] == 0

    def test_disjoint_names_warn_not_crash(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _write_bench(a, {"bench_old": 0.010})
        _write_bench(b, {"bench_new": 0.010})
        lines, regressions = diff_benchmarks(str(a), str(b))
        assert regressions == 0
        warnings = [l for l in lines if "warning" in l]
        assert len(warnings) == 2


class TestTrajectory:
    def test_gap_warns_not_crashes(self, tmp_path):
        _write_bench(tmp_path / "BENCH_pr1.json", {"bench_x": 0.010})
        _write_bench(tmp_path / "BENCH_pr2.json", {"bench_x": 0.010})
        _write_bench(tmp_path / "BENCH_pr4.json", {"bench_x": 0.011})
        found, warnings = trajectory_files(str(tmp_path))
        assert [n for n, _ in found] == [1, 2, 4]
        assert warnings and "BENCH_pr3.json" in warnings[0]
        lines, regressions = diff_trajectory(str(tmp_path))
        assert regressions == 0
        assert any("gap" in line for line in lines)

    def test_trajectory_counts_regressions(self, tmp_path):
        _write_bench(tmp_path / "BENCH_pr1.json", {"bench_x": 0.010})
        _write_bench(tmp_path / "BENCH_pr2.json", {"bench_x": 0.030})
        _write_bench(tmp_path / "BENCH_pr3.json", {"bench_x": 0.090})
        lines, regressions = diff_trajectory(str(tmp_path))
        assert regressions == 2
        assert cli_main(["obs", "diff", str(tmp_path)]) == 2
        assert cli_main(["obs", "diff", "--dir", str(tmp_path)]) == 2

    def test_single_file_needs_a_pair(self, tmp_path):
        _write_bench(tmp_path / "BENCH_pr1.json", {"bench_x": 0.010})
        lines, regressions = diff_trajectory(str(tmp_path))
        assert regressions == 0
        assert any("at least two" in line for line in lines)

    def test_repo_trajectory_is_green_at_ci_threshold(self):
        """The committed BENCH_pr* history passes under the tolerant
        cross-machine threshold CI uses."""
        found, _ = trajectory_files(_REPO_ROOT)
        if len(found) < 2:
            pytest.skip("no committed BENCH_pr* trajectory")
        _, regressions = diff_trajectory(_REPO_ROOT, threshold=20.0)
        assert regressions == 0
