"""Verdicts and exit status of the parent/change benchmark comparison.

``benchmarks/ab.py`` is a script, so it is loaded from its path. The
verdict cases feed :func:`compare` or :func:`verdict` synthetic
perfbench result objects, and the staging case copies a scratch git
repository; nothing runs the benchmark.
"""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BENCH = {
    "workloads": [{"name": "serve"}],
    "end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ],
}
# Ten parent runs: median 10.0, quartiles 9.625 and 10.375 (IQR 0.75).
PARENT = [9.0, 9.5, 9.5, 10.0, 10.0, 10.0, 10.0, 10.5, 10.5, 11.0]


def _result(p50_ms=None, *, correct=True, attempted=100, failed=0):
    metrics = {}
    if p50_ms is not None:
        metrics["p50_ms"] = {"value": p50_ms, "unit": "ms"}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _compare(parent, change):
    results = {"serve": {"parent": parent, "change": change}}
    return ab.compare(BENCH, results)


def _runs(values, **kwargs):
    return [_result(v, **kwargs) for v in values]


class TestVerdict:
    def test_better_needs_nine_wins_and_more_than_the_iqr(self):
        change = [v - 1.5 for v in PARENT]
        change[0] = PARENT[0] + 1.0  # one pair lost: 9 of 10 won
        assert ab.verdict(PARENT, change, "lower", 0.25) == ("better", 9)
        # Eight wins are not enough.
        change[1] = PARENT[1] + 1.0
        assert ab.verdict(PARENT, change, "lower", 0.25)[0] == "no worse"

    def test_median_gain_inside_the_iqr_is_not_better(self):
        change = [v - 0.5 for v in PARENT]  # wins 10/10, gain 0.5 < IQR 0.75
        assert ab.verdict(PARENT, change, "lower", 0.25) == ("no worse", 10)

    def test_higher_is_better_metrics_win_upwards(self):
        change = [v + 2.0 for v in PARENT]
        assert ab.verdict(PARENT, change, "higher", 0.1) == ("better", 10)
        assert ab.verdict(PARENT, change, "lower", 0.1)[0] == "WORSE"

    def test_worse_than_the_bound(self):
        change = [v * 1.3 for v in PARENT]  # median 13.0 > 10.0 * 1.25
        assert ab.verdict(PARENT, change, "lower", 0.25) == ("WORSE", 0)
        lines, status = _compare(_runs(PARENT), _runs(change))
        assert status == 1
        assert any(line.split()[-1] == "WORSE" for line in lines)

    def test_inside_the_bound_is_no_worse(self):
        change = [v * 1.2 for v in PARENT]
        assert ab.verdict(PARENT, change, "lower", 0.25)[0] == "no worse"
        assert _compare(_runs(PARENT), _runs(change))[1] == 0

    def test_spread_wider_than_the_bound_is_unresolved(self):
        # Parent IQR 0.75 against a 5% bound on a median of 10.0.
        assert ab.verdict(PARENT, list(PARENT), "lower", 0.05) == (
            "unresolved", 0)
        change = [v - 0.4 for v in PARENT]  # wins 10/10, runs overlap
        assert ab.verdict(PARENT, change, "lower", 0.05) == (
            "unresolved", 10)
        # ... unless every change run beats every parent run.
        parent = [10.0] * 7 + [20.0] * 3  # IQR 7.5, median 10.0
        assert ab.verdict(parent, [9.9] * 10, "lower", 0.05) == (
            "no worse", 10)

    @pytest.mark.parametrize("pairs", [1, 9])
    def test_fewer_than_ten_pairs_is_unresolved(self, pairs):
        worse = [v * 2.0 for v in PARENT[:pairs]]
        better = [v * 0.5 for v in PARENT[:pairs]]
        assert ab.verdict(PARENT[:pairs], worse, "lower", 0.25) == (
            "unresolved", 0)
        assert ab.verdict(PARENT[:pairs], better, "lower", 0.25) == (
            "unresolved", pairs)
        # A single pair reports, but gates nothing on the values.
        lines, status = _compare(_runs(PARENT[:pairs]), _runs(worse))
        assert status == 0
        assert lines[1].split()[-1] == "unresolved"


class TestExitStatus:
    def test_clean_comparison_exits_zero(self):
        lines, status = _compare(_runs(PARENT), _runs(PARENT))
        assert status == 0
        assert not any(line.startswith("ab:") for line in lines)

    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_missing_key_fails(self, side):
        runs = {"parent": _runs(PARENT), "change": _runs(PARENT)}
        runs[side][3] = _result(None)
        lines, status = _compare(runs["parent"], runs["change"])
        assert status == 1
        assert lines[1].split()[-1] == "missing"
        assert f"missing on the {side} side" in lines[-1]

    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_incorrect_run_fails(self, side):
        runs = {"parent": _runs(PARENT), "change": _runs(PARENT)}
        runs[side][0] = _result(PARENT[0], correct=False)
        lines, status = _compare(runs["parent"], runs["change"])
        assert status == 1
        assert f"a {side} run reported correct: false" in lines[-1]

    def test_higher_failed_share_fails(self):
        parent = _runs(PARENT, failed=1)
        change = _runs(PARENT, failed=1)
        assert _compare(parent, change)[1] == 0
        change[5] = _result(PARENT[5], failed=2)
        lines, status = _compare(parent, change)
        assert status == 1
        assert "failed a larger share" in lines[-1]
        # A lower failed share than the parent's is fine.
        assert _compare(change, parent)[1] == 0


class TestStageTree:
    def test_copies_tracked_and_unignored_files_as_on_disk(self, tmp_path):
        repo = tmp_path / "repo"
        (repo / "pkg").mkdir(parents=True)
        files = {
            ".gitignore": "ignored.txt\nbuild/\n",
            "tracked.txt": "committed\n",
            "pkg/module.py": "X = 1\n",
            "gone.txt": "deleted later\n",
        }
        for name, text in files.items():
            (repo / name).write_text(text)
        subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
        subprocess.run(["git", "add", "."], cwd=repo, check=True)
        (repo / "tracked.txt").write_text("edited, not staged\n")
        (repo / "gone.txt").unlink()
        (repo / "new.txt").write_text("untracked\n")
        (repo / "ignored.txt").write_text("ignored\n")
        (repo / "build").mkdir()
        (repo / "build" / "out.bin").write_text("ignored\n")

        dest = tmp_path / "change"
        ab.stage_tree(repo, dest)

        staged = sorted(
            str(path.relative_to(dest)) for path in dest.rglob("*")
            if path.is_file()
        )
        assert staged == [".gitignore", "new.txt", "pkg/module.py",
                          "tracked.txt"]
        assert (dest / "tracked.txt").read_text() == "edited, not staged\n"
