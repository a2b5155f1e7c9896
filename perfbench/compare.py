#!/usr/bin/env python3
"""Summarise one set of benchmark runs, or compare two.

Each set is a directory of files named ``<workload>-<seed>.out`` that
hold the standard output of ``perfbench/run.py`` (the last line is the
result object).  Run from the repository root::

    python3 perfbench/compare.py RUNS_DIR             # medians, quartiles, spread
    python3 perfbench/compare.py BASE_DIR NEW_DIR     # plus the bound verdict

For every workload and metric the summary gives the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.
The comparison flags an end-to-end metric whose median in NEW_DIR is
worse than in BASE_DIR by more than the bound in ``BENCHMARK.json``,
and an end-to-end metric other than ``setup_s`` whose spread exceeds
its bound.  It exits 1 when anything is flagged or any run was
incorrect, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.out")):
        workload = path.stem.rsplit("-", 1)[0]
        lines = path.read_text().strip().splitlines()
        if not lines:
            raise SystemExit(f"{path}: empty output")
        runs.setdefault(workload, []).append(json.loads(lines[-1]))
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def metric_values(runs: list[dict]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def describe(label: str, runs: dict[str, list[dict]], bounds: dict) -> bool:
    flagged = False
    for workload, results in sorted(runs.items()):
        bad = [r for r in results if not r["correct"]]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(
            f"{label} {workload}: {len(results)} runs, {len(bad)} incorrect, "
            f"{failed}/{attempted} operations failed"
        )
        flagged |= bool(bad)
        for name, values in sorted(metric_values(results).items()):
            median, q1, q3, spread = summary(values)
            note = ""
            bound = bounds.get(name, {}).get("bound")
            if bound is not None and name != "setup_s" and spread > bound:
                note = f"  SPREAD ABOVE BOUND {bound}"
                flagged = True
            print(
                f"  {name:32s} median {median:14.4f}  q1 {q1:14.4f}  "
                f"q3 {q3:14.4f}  spread {spread:7.2%}{note}"
            )
    return flagged


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(Path(directory)) for directory in argv]
    flagged = False
    for label, runs in zip(("base", "new"), sets):
        flagged |= describe(label, runs, bounds)
    if len(sets) == 2:
        base, new = sets
        for workload in sorted(set(base) & set(new)):
            base_values = metric_values(base[workload])
            new_values = metric_values(new[workload])
            for name, metric in sorted(bounds.items()):
                if name not in base_values or name not in new_values:
                    continue
                change = worse_by(
                    statistics.median(base_values[name]),
                    statistics.median(new_values[name]),
                    metric["better"],
                )
                verdict = "REGRESSION" if change > metric["bound"] else "ok"
                flagged |= verdict != "ok"
                print(
                    f"{workload:18s} {name:14s} worse by {change:+8.2%} "
                    f"(bound {metric['bound']:.0%}): {verdict}"
                )
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
