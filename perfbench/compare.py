#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent commit against a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``<workload>-seed<n>-trace0.json`` records that
``run.py --results DIR`` writes, ideally ten or more runs per workload on
each side with the same seeds, parent and change alternating run by run so
that both see the same machine drift.  For every workload and end-to-end metric it
prints each side's median and quartiles over its runs, how many seed-paired
runs the change wins (ties count for neither side), and a verdict under the
bounds of BENCHMARK.json:

* ``improved``   -- the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range;
* ``regressed``  -- the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` -- the parent's own spread (interquartile range over
  median) exceeds the bound, and not every change run beats every parent
  run;
* ``unchanged``  -- otherwise.

Exits 1 if any row regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> record, from the untraced run records."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], pairs, bound: float,
            lower_is_better: bool) -> tuple[str, int]:
    """(verdict, pair wins of the change) for one workload and metric."""
    def better(a, b):
        return a < b if lower_is_better else a > b

    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    wins = sum(better(c, p) for p, c in pairs)
    scale = abs(p_med) or 1.0
    worse_share = (c_med - p_med) / scale * (1 if lower_is_better else -1)
    if (pairs and wins >= 0.9 * len(pairs) and better(c_med, p_med)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "improved", wins
    if worse_share > bound:
        return "regressed", wins
    if (p_q3 - p_q1) / scale > bound and not all(better(c, p) for c in change for p in parent):
        return "unresolved", wins
    return "unchanged", wins


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> list[dict]:
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent_runs.get(workload, {}), change_runs.get(workload, {})
        if not p_runs or not c_runs:
            continue
        # pair runs by seed; unmatched seeds pair up in sorted order
        common = sorted(set(p_runs) & set(c_runs))
        p_seeds = common + sorted(set(p_runs) - set(common))
        c_seeds = common + sorted(set(c_runs) - set(common))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [p_runs[s]["metrics"][name]["value"] for s in p_seeds]
            c_vals = [c_runs[s]["metrics"][name]["value"] for s in c_seeds]
            pairs = list(zip(p_vals, c_vals))
            result, wins = verdict(p_vals, c_vals, pairs, metric["bound"],
                                   metric["better"] == "lower")
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "parent": quartiles(p_vals), "change": quartiles(c_vals),
                         "n": (len(p_vals), len(c_vals)), "wins": wins,
                         "pairs": len(pairs), "verdict": result})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="records of the parent commit")
    parser.add_argument("change", type=Path, help="records of the change")
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json",
                        help="benchmark definition holding the bounds")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    rows = compare(args.parent, args.change, spec)
    if not rows:
        print("error: no workload has untraced records on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':14s} {'metric':13s} {'unit':6s} {'parent median':>13s} "
          f"{'[q1, q3]':>21s} {'n':>3s} {'change median':>13s} {'[q1, q3]':>21s} {'n':>3s} "
          f"{'delta':>8s} {'wins':>6s}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        delta = (c[1] - p[1]) / (abs(p[1]) or 1.0)
        print(f"{r['workload']:14s} {r['metric']:13s} {r['unit']:6s} "
              f"{p[1]:13.6g} {f'[{p[0]:.4g}, {p[2]:.4g}]':>21s} {r['n'][0]:3d} "
              f"{c[1]:13.6g} {f'[{c[0]:.4g}, {c[2]:.4g}]':>21s} {r['n'][1]:3d} "
              f"{delta:+8.2%} {r['wins']:>2d}/{r['pairs']:<3d}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
