#!/usr/bin/env python3
"""The repository's benchmark: one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload table1_warm --seed 1 --seconds 15 --trace 0

``--trace 0`` sets up, runs the workload's fixed operation list and
prints the end-to-end metrics.  ``--trace 1`` sets up with span
wrappers installed, runs the operation list once untraced and once
traced, and prints the per-layer metrics plus the tracing overhead.
Both modes then check every result (``checks.py``) and feed each check
a corrupted result that it must reject.  Progress and failures go to
stderr; stdout carries an environment stamp line and, last, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_repro():
    """Import the checkout's own ``repro``, never an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro sources at {SRC}; run from the repository root"
        )
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def environment(workload, loadavg: float) -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    from repro.setcover import ilp

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "ilp_backend": "linprog" if ilp._HAVE_SCIPY else "branch_and_bound",
        "cover_solvers": workload.solvers(),
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg,
    }


def end_to_end(workload, setup_s, latencies, wall) -> dict:
    test_length, triplets = workload.table1()
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "op_ms.p50": (1000.0 * statistics.median(latencies), "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        "test_length": (test_length, "patterns"),
        "triplets": (triplets, "count"),
    }


def per_layer(workload, recorder, wall_untraced, wall_traced) -> tuple[dict, list]:
    rec = recorder
    ms = rec.total_ms
    counts = {**rec.counts, **workload.counters, **workload.extra}
    atpg_run = ms("atpg.run")
    random_ms = ms("atpg.random")
    compact_ms = ms("atpg.compact")
    verify_ms = rec.child_ms("sim.fault_coverage", "atpg.run")
    collapse_in_atpg = rec.child_ms("faults.collapse", "atpg.run")
    matrix_ms = ms("reseeding.matrix") - rec.nested_ms("tpg.evolve", "reseeding.matrix")
    ops = rec.ops()
    coverage = [op.child_s / op.seconds for op in ops]
    failures = [
        f"op {i}: timed layer calls cover {100 * c:.1f}% of its wall time"
        for i, c in enumerate(coverage)
        if c < 0.9
    ]
    metrics = {
        "circuits.load_ms": (ms("circuits.load"), "ms"),
        "faults.collapse_ms": (ms("faults.collapse"), "ms"),
        "atpg.run_ms": (atpg_run, "ms"),
        "atpg.random_ms": (random_ms, "ms"),
        "atpg.topoff_ms": (
            atpg_run - random_ms - compact_ms - verify_ms - collapse_in_atpg,
            "ms",
        ),
        "atpg.compact_ms": (compact_ms, "ms"),
        "atpg.verify_ms": (verify_ms, "ms"),
        "atpg.podem_patterns": (counts.get("atpg.podem_patterns", 0), "count"),
        "atpg.rounds": (counts.get("atpg.rounds", 0), "count"),
        "atpg.backtracks": (counts.get("atpg.backtracks", 0), "count"),
        "atpg.tail_finishes": (counts.get("atpg.tail_finishes", 0), "count"),
        "tpg.evolve_ms": (ms("tpg.evolve"), "ms"),
        "tpg.patterns": (counts.get("tpg.patterns", 0), "count"),
        "reseeding.matrix_ms": (matrix_ms, "ms"),
        "reseeding.matrix_rows": (counts.get("reseeding.matrix_rows", 0), "count"),
        "reseeding.matrix_rate": (
            counts.get("reseeding.matrix_cells", 0) / (matrix_ms / 1000.0)
            if matrix_ms
            else 0.0,
            "cells/s",
        ),
        "reseeding.trim_ms": (
            ms("reseeding.trim") - rec.nested_ms("tpg.evolve", "reseeding.trim"),
            "ms",
        ),
        "setcover.reduce_ms": (ms("setcover.reduce"), "ms"),
        "setcover.solve_ms": (
            ms("setcover.solve") - rec.nested_ms("setcover.reduce", "setcover.solve"),
            "ms",
        ),
        "setcover.core_cells": (counts.get("setcover.core_cells", 0), "count"),
        "sim.compile_ms": (ms("sim.compile"), "ms"),
        "sim.plan_builds": (counts.get("sim.plan_builds", 0), "count"),
        "sim.plan_subsets": (counts.get("sim.plan_subsets", 0), "count"),
        "sim.plan_cache_hits": (counts.get("sim.plan_cache_hits", 0), "count"),
        "sim.words_simulated": (counts.get("sim.words_simulated", 0), "count"),
        "sim.faults_dropped": (counts.get("sim.faults_dropped", 0), "count"),
        "diagnosis.resolution": (counts.get("diagnosis.resolution", 0), "candidates"),
        "diagnosis.dictionary_build_ms": (ms("diagnosis.dictionary_build"), "ms"),
        "diagnosis.lookup_ms": (ms("diagnosis.lookup"), "ms"),
        "serve.compute_ms": (rec.mean_ms("serve.compute"), "ms"),
        "serve.wait_ms": (counts.get("serve.wait_ms", 0), "ms"),
        "serve.batch_occupancy": (counts.get("serve.batch_occupancy", 0), "requests"),
        "serve.batches": (counts.get("serve.batches", 0), "count"),
        "serve.op_ms.p90": (counts.get("serve.op_ms.p90", 0), "ms"),
        "flow.self_ms": (
            1000.0 * sum(op.seconds - op.child_s for op in ops),
            "ms",
        ),
        "obs.layer_coverage_pct": (100.0 * min(coverage), "%"),
        "obs.trace_overhead_pct": (100.0 * (wall_traced / wall_untraced - 1.0), "%"),
    }
    return metrics, failures


def run(args) -> dict:
    loadavg = os.getloadavg()[0]
    import_repro()
    from layers import SpanRecorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload](ROOT, args.seed, args.seconds)
    traced = bool(args.trace)
    try:
        recorder = SpanRecorder()
        if traced:
            recorder.install()
        try:
            setup_s = workload.setup(traced)
        finally:
            recorder.uninstall()
        ops = workload.operations()
        latencies, wall, failed = workload.run_ops(ops)
        attempted = len(ops)
        if traced:
            workload.before_trace()
            recorder.install()
            try:
                _, wall_traced, failed_traced = workload.run_ops(ops, recorder)
            finally:
                recorder.uninstall()
            workload.finish_trace(latencies)
            metrics, failures = per_layer(workload, recorder, wall, wall_traced)
            attempted += len(ops)
            failed += failed_traced
        else:
            metrics = end_to_end(workload, setup_s, latencies, wall)
            failures = []
        checks_start = time.perf_counter()
        failures += workload.check()
        failures += workload.selftest()
        print(
            f"perfbench: set-up {setup_s:.2f} s, {attempted} ops in "
            f"{wall:.2f} s untraced, checks {time.perf_counter() - checks_start:.2f} s",
            file=sys.stderr,
        )
        print("env " + json.dumps(environment(workload, loadavg), sort_keys=True))
    finally:
        workload.close()
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    result = run(args)
    print(
        f"perfbench: {args.workload} seed {args.seed} done in "
        f"{time.perf_counter() - start:.1f} s",
        file=sys.stderr,
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
