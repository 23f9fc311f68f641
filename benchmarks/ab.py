#!/usr/bin/env python
"""Compare the benchmark on a parent revision and on the working tree.

Usage (from anywhere inside the repository)::

    python benchmarks/ab.py PARENT_REV [--pairs N] [--seconds S]

The parent revision is extracted with ``git archive`` into
``<tmp>/parent``, and the working tree's tracked and unignored files, as
they are on disk, are copied to ``<tmp>/change``, so the two sides run
from sibling paths of the same length. (With identical code, a run
from the checkout and one from a temporary directory differed by about
0.2 MB of peak resident set, which would otherwise read as a difference
between the trees.) The temporary directory is removed on every exit
path; the repository's ``.git`` and working tree are only read. For
every workload that ``BENCHMARK.json`` declares, each tree's own
``perfbench/run.py --workload W`` runs from that tree's root for
``--seconds S`` (default: ``BENCHMARK.json``'s ``run_seconds``), in N
alternated pairs (default 10): pair i runs seed i on both sides, the
parent first on even pairs.

For each workload and end-to-end metric it prints both medians, how
many pairs the change won (ties count for neither side), the parent's
interquartile range (IQR) and a verdict:

``better``
    at least ten pairs, the change won at least nine tenths of them,
    and the medians differ by more than the parent's IQR;
``WORSE``
    at least ten pairs, and the change's median is worse than the
    parent's by more than the metric's bound (a fraction of the
    parent's median);
``unresolved``
    fewer than ten pairs, or the parent's IQR is wider than the bound
    and not every change run beats every parent run;
``no worse``
    otherwise.

Exit status 1 when a run fails or reports ``correct: false``, a
declared metric is missing on either side, the change fails a larger
share of its operations on some workload, or a row reads ``WORSE``; 2
when the revision does not resolve; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
SIDES = ("parent", "change")


class RunError(RuntimeError):
    pass


def iqr(values: list[float]) -> float:
    """Distance between the quartiles (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int]:
    """``(verdict, pairs the change won)`` for one metric, from each
    side's values in pair order."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if len(parent) < MIN_PAIRS:
        return "unresolved", wins
    base = statistics.median(parent)
    gain = sign * (statistics.median(change) - base)
    spread = iqr(parent)
    if wins >= WIN_SHARE * len(parent) and gain > spread:
        return "better", wins
    if -gain > bound * abs(base):
        return "WORSE", wins
    if better == "lower":
        every_run_better = max(change) < min(parent)
    else:
        every_run_better = min(change) > max(parent)
    if spread > bound * abs(base) and not every_run_better:
        return "unresolved", wins
    return "no worse", wins


def _failed_share(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(bench: dict, results: dict) -> tuple[list[str], int]:
    """The report lines and exit status.

    *results* maps each workload to ``{"parent": [...], "change":
    [...]}``: one perfbench result object (``correct``, ``attempted``,
    ``failed``, ``metrics``) per pair on each side, in pair order.
    """
    rows = [("workload", "metric", "parent", "change", "wins",
             "parent IQR", "verdict")]
    problems: list[str] = []
    shares: list[str] = []
    for workload in (w["name"] for w in bench["workloads"]):
        runs = results[workload]
        for side in SIDES:
            if not all(r["correct"] for r in runs[side]):
                problems.append(f"{workload}: a {side} run reported "
                                f"correct: false")
        share = {side: _failed_share(runs[side]) for side in SIDES}
        shares.append(f"{workload}: failed share parent "
                      f"{share['parent']:.4g}, change {share['change']:.4g}")
        if share["change"] > share["parent"]:
            problems.append(f"{workload}: the change failed a larger share "
                            f"of operations")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = {
                side: [r["metrics"].get(name, {}).get("value")
                       for r in runs[side]]
                for side in SIDES
            }
            label = f"{name} ({metric['unit']})"
            missing = [side for side in SIDES if None in values[side]]
            if missing:
                problems.append(f"{workload}: {name} missing on the "
                                f"{' and '.join(missing)} side")
                rows.append((workload, label, "-", "-", "-", "-", "missing"))
                continue
            parent, change = values["parent"], values["change"]
            result, wins = verdict(parent, change, metric["better"],
                                   metric["bound"])
            if result == "WORSE":
                problems.append(f"{workload}: {name} worse than the parent "
                                f"by more than {metric['bound']:.0%}")
            rows.append((
                workload, label, f"{statistics.median(parent):.4g}",
                f"{statistics.median(change):.4g}",
                f"{wins}/{len(parent)}", f"{iqr(parent):.3g}", result,
            ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths))
             .rstrip() for row in rows]
    return lines + shares + [f"ab: {p}" for p in problems], int(
        bool(problems))


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run from *tree*'s root; its result
    object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
    raise RunError(f"{workload} seed {seed} failed in {tree} "
                   f"(exit {proc.returncode}):\n{tail}")


def run_pairs(bench: dict, trees: dict, pairs: int,
              seconds: float) -> dict:
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: {side: [] for side in SIDES} for w in workloads}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                print(f"ab: pair {i + 1}/{pairs} {workload} {side}",
                      file=sys.stderr, flush=True)
                results[workload][side].append(
                    run_one(trees[side], workload, i, seconds))
    return results


def _git(*args: str, cwd: Path = ROOT,
         **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          **kwargs)


def stage_tree(root: Path, dest: Path) -> None:
    """Copy *root*'s tracked and unignored files, as they are in its
    working tree, to *dest* (tracked files deleted from disk are
    skipped; ``.git`` is not copied)."""
    listed = _git("ls-files", "-z", "--cached", "--others",
                  "--exclude-standard", cwd=root, check=True).stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source = root / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def _at_least(kind, minimum):
    """An argparse ``type=``: a finite *kind* no smaller than
    *minimum*."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value >= minimum):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a finite number >= {minimum}")
        return value
    return parse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("parent", metavar="PARENT_REV",
                        help="revision to compare against, e.g. HEAD~1")
    parser.add_argument("--pairs", type=_at_least(int, 1), default=MIN_PAIRS,
                        help=f"alternated pairs (default {MIN_PAIRS})")
    parser.add_argument("--seconds", type=_at_least(float, 0.0), default=None,
                        help="run length of each perfbench run (default: "
                             "BENCHMARK.json's run_seconds)")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    rev = _git("rev-parse", "--verify", "--quiet",
               f"{args.parent}^{{commit}}", text=True)
    if rev.returncode != 0:
        print(f"ab: unknown revision {args.parent!r}", file=sys.stderr)
        return 2
    commit = rev.stdout.strip()
    archive = _git("archive", "--format=tar", commit, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        trees["parent"].mkdir()
        subprocess.run(["tar", "-x", "-C", trees["parent"]], input=archive,
                       check=True)
        stage_tree(ROOT, trees["change"])
        try:
            results = run_pairs(bench, trees, args.pairs, seconds)
        except RunError as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return 1
    lines, status = compare(bench, results)
    print(f"ab: parent {args.parent} ({commit[:12]}) vs the working tree, "
          f"{args.pairs} pair(s) of {seconds} s runs")
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
