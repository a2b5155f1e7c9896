"""The workloads: what each one sets up, its fixed operation list, how
one operation runs, and its correctness checks.

Every workload turns ``--seconds`` into a fixed count of operations
(``seconds / nominal_op_s``, at least one), so two runs with the same
arguments attempt exactly the same operations however fast the machine
is.  The reseeding flows always run at the configuration ``repro run``
uses by default (seed 2001, T=32): that configuration fixes Table 1's
numbers, and other flow seeds move the op time by about 14% and the
test length by about 6% (seeds 1 and 2 on this benchmark's chain),
which would swamp every bound.  ``--seed`` draws the inputs that are
meant to vary: the order of ``table1_warm``'s operations in a round,
the injected faults behind the fail logs ``serve_dictionary`` sends,
and the fault sample the flow checks re-simulate.
"""

from __future__ import annotations

import os
import random
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback

import numpy as np

from checks import (
    check_diagnosis,
    check_flow,
    check_served,
    fault_sample,
    selftest_diagnosis,
    selftest_flow,
    selftest_served,
    ties_at_best,
)
from layers import OP_SPAN

import repro.circuits
from repro.diagnosis.inject import choose_faults, make_fail_log
from repro.diagnosis.result import DiagnosisResult
from repro.flow.pipeline import PipelineConfig
from repro.flow.serialize import diagnosis_result_to_dict, to_json
from repro.flow.session import Session
from repro.obs import Telemetry
from repro.sim.fault import FaultSimulator
from repro.sim.logic import CompiledCircuit
from repro.tpg.registry import PAPER_TPGS, make_tpg

#: The ``repro run`` defaults: flow seed 2001, evolution length T=32.
FLOW_CONFIG = PipelineConfig(evolution_length=32)

#: Scale of every circuit (the quick rungs of the size ladder).
SCALE = 1.0

#: Cold process starts sampled per run for ``setup_s``.
COLD_STARTS = 3

#: Candidates each diagnosis returns.
TOP_K = 10

#: ``repro_*_total`` series read through ``Telemetry.on()`` in the traced run.
COUNTER_SERIES = {
    "sim.plan_builds": "repro_sim_plan_builds_total",
    "sim.plan_subsets": "repro_sim_plan_subsets_total",
    "sim.plan_cache_hits": "repro_sim_plan_cache_hits_total",
    "sim.words_simulated": "repro_sim_words_simulated_total",
    "sim.faults_dropped": "repro_sim_faults_dropped_total",
    "atpg.rounds": "repro_atpg_rounds_total",
    "atpg.backtracks": "repro_atpg_backtracks_total",
    "atpg.tail_finishes": "repro_atpg_tail_finishes_total",
}


def read_counters(metrics, into: dict) -> None:
    """Add the registry's current ``COUNTER_SERIES`` values to ``into``."""
    for key, series in COUNTER_SERIES.items():
        try:
            value = metrics.scalar_value(series)
        except KeyError:
            continue
        into[key] = into.get(key, 0) + value


def child_env(root) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def time_cold_start(root, circuits) -> float:
    """Seconds for a fresh interpreter to import ``repro`` and load
    ``circuits``: the process-start part of set-up."""
    code = (
        "from repro.circuits import load_circuit\n"
        f"for name in {tuple(circuits)!r}:\n"
        f"    load_circuit(name, scale={SCALE!r})\n"
    )
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], env=child_env(root), cwd=root, check=True
    )
    return time.perf_counter() - start


class Workload:
    """Base: a fixed operation list run sequentially in this process."""

    name = ""
    #: Circuits the cold-start sample loads.
    circuits: tuple[str, ...] = ()
    #: Rough seconds per operation, used only to size the fixed op list.
    nominal_op_s = 1.0

    def __init__(self, root, seed: int, seconds: int) -> None:
        self.root = root
        self.rng = random.Random(seed)
        self.n_ops = max(1, round(seconds / self.nominal_op_s))
        #: Counter totals read through ``Telemetry.on()`` (traced run).
        self.counters: dict[str, float] = {}
        #: Per-layer values a workload measures itself (traced run).
        self.extra: dict[str, float] = {}

    # -- set-up ------------------------------------------------------------

    def setup(self, traced: bool) -> float:
        """Run the set-up; return ``setup_s`` (median cold start plus the
        in-process warm-up)."""
        cold = 0.0
        if not traced:
            cold = statistics.median(
                time_cold_start(self.root, self.circuits)
                for _ in range(COLD_STARTS)
            )
        start = time.perf_counter()
        self.warm_up(traced)
        return cold + time.perf_counter() - start

    def warm_up(self, traced: bool) -> None:
        pass

    def telemetry(self, traced: bool):
        return Telemetry.on() if traced else None

    # -- operations ----------------------------------------------------------

    def operations(self) -> list:
        raise NotImplementedError

    def run_op(self, op, traced: bool):
        raise NotImplementedError

    def run_ops(self, ops, recorder=None) -> tuple[list[float], float, int]:
        """Run every op once; return (per-op seconds, wall seconds, failures)."""
        traced = recorder is not None
        latencies: list[float] = []
        failed = 0
        wall = time.perf_counter()
        for op in ops:
            start = time.perf_counter()
            index = recorder.begin(OP_SPAN) if traced else None
            try:
                self.run_op(op, traced)
            except Exception:  # count it, report it, keep running the list
                failed += 1
                print(f"{self.name}: operation {op!r} failed:", file=sys.stderr)
                traceback.print_exc()
            finally:
                if traced:
                    recorder.end(index)
            latencies.append(time.perf_counter() - start)
        return latencies, time.perf_counter() - wall, failed

    def before_trace(self) -> None:
        """Called between the untraced and the traced pass."""

    def finish_trace(self, untraced_latencies: list[float]) -> None:
        """Collect what the traced run measures beyond the spans."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def solvers(self) -> dict[str, str]:
        """The covering backend (``SolveStats.solver``) of each flow."""
        raise NotImplementedError

    # -- results -------------------------------------------------------------

    def table1(self) -> tuple[int, int]:
        """(test length, #triplets) summed over the distinct flows."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def selftest(self) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class FlowResults:
    """Flow results keyed by (circuit, TPG), checked for determinism."""

    def __init__(self) -> None:
        self.first: dict = {}
        self.mismatches: list[str] = []

    def add(self, key, result) -> None:
        first = self.first.setdefault(key, result)
        if (first.n_triplets, first.test_length) != (
            result.n_triplets,
            result.test_length,
        ):
            self.mismatches.append(
                f"{key}: repeated flow gave {result.n_triplets} triplets / "
                f"{result.test_length} patterns, first gave "
                f"{first.n_triplets} / {first.test_length}"
            )

    def table1(self) -> tuple[int, int]:
        results = self.first.values()
        return (
            sum(r.test_length for r in results),
            sum(r.n_triplets for r in results),
        )

    def solvers(self) -> dict[str, str]:
        return {
            f"{c}/{t}": r.cover.stats.solver for (c, t), r in sorted(self.first.items())
        }


class FlowWorkload(Workload):
    """Shared checks for the two reseeding-flow workloads."""

    def __init__(self, root, seed, seconds) -> None:
        super().__init__(root, seed, seconds)
        self.results = FlowResults()
        self.loaded: dict = {}

    def circuit(self, name):
        if name not in self.loaded:
            # Looked up at call time, so the traced run's wrapper sees it.
            self.loaded[name] = repro.circuits.load_circuit(name, scale=SCALE)
        return self.loaded[name]

    def table1(self):
        return self.results.table1()

    def solvers(self):
        return self.results.solvers()

    def _checked(self):
        for (name, tpg_name), result in sorted(self.results.first.items()):
            circuit = self.circuit(name)
            tpg = make_tpg(tpg_name, circuit.n_inputs)
            sample = fault_sample(result.atpg.target_faults, self.rng)
            yield circuit, tpg, result, sample

    def check(self):
        failures = list(self.results.mismatches)
        for circuit, tpg, result, sample in self._checked():
            failures += check_flow(circuit, tpg, result, sample)
        return failures

    def selftest(self):
        failures = []
        for circuit, tpg, result, sample in self._checked():
            failures += selftest_flow(circuit, tpg, result, sample)
        return failures


class FlowCold(FlowWorkload):
    """``flow_cold``: the wait behind ``repro run`` with no cache."""

    name = "flow_cold"
    circuits = ("c880", "s1238")
    chain = (("c880", "adder"), ("s1238", "multiplier"))
    nominal_op_s = 20.0

    def operations(self):
        return list(range(self.n_ops))

    def run_op(self, op, traced):
        telemetry = self.telemetry(traced)
        for name, tpg in self.chain:
            session = Session.from_name(
                name, scale=SCALE, config=FLOW_CONFIG, telemetry=telemetry
            )
            self.results.add((name, tpg), session.run(tpg))
            if traced:
                read_counters(telemetry.metrics, self.counters)
                telemetry = self.telemetry(traced)


class Table1Warm(FlowWorkload):
    """``table1_warm``: one TPG flow per op over a shared s1238 ATPG."""

    name = "table1_warm"
    circuits = ("s1238",)
    circuit_name = "s1238"
    tpgs = PAPER_TPGS + ("lfsr",)
    nominal_op_s = 1.9

    def __init__(self, root, seed, seconds) -> None:
        super().__init__(root, seed, seconds)
        self.n_rounds = max(1, round(self.n_ops / len(self.tpgs)))

    def warm_up(self, traced):
        telemetry = self.telemetry(traced)
        session = Session(
            self.circuit(self.circuit_name), FLOW_CONFIG, telemetry=telemetry
        )
        self.atpg = session.atpg_result
        if traced:
            read_counters(telemetry.metrics, self.counters)

    def operations(self):
        ops = []
        for _ in range(self.n_rounds):
            round_ = list(self.tpgs)
            self.rng.shuffle(round_)
            ops += round_
        return ops

    def run_op(self, tpg, traced):
        # A fresh session per op: no evolution memo or plan cache carries
        # over, so every op of a TPG does the same work.
        telemetry = self.telemetry(traced)
        session = Session(
            self.circuit(self.circuit_name),
            FLOW_CONFIG,
            atpg_result=self.atpg,
            telemetry=telemetry,
        )
        self.results.add((self.circuit_name, tpg), session.run(tpg))
        if traced:
            read_counters(telemetry.metrics, self.counters)


class DiagnosisInputs:
    """The c880 adder reseeding test set and seeded single-fault logs."""

    circuit_name = "c880"
    tpg_name = "adder"

    def __init__(self, telemetry) -> None:
        session = Session.from_name(
            self.circuit_name, scale=SCALE, config=FLOW_CONFIG, telemetry=telemetry
        )
        self.flow = session.run(self.tpg_name)
        # Keeps the simulator, and so its counter collector, alive.
        self.session = session
        self.circuit = session.circuit
        tpg = make_tpg(self.tpg_name, self.circuit.n_inputs)
        self.patterns = self.flow.trimmed.solution.patterns(tpg)
        self.targets = list(self.flow.atpg.target_faults)
        self._compiled = CompiledCircuit(self.circuit)
        self._by_detections: list | None = None

    def logs(self, rng, count: int) -> list:
        """``count`` logs, one injected fault drawn from each of ``count``
        equal strata of the target faults ordered by how many test
        patterns detect them, so every seed gets fail logs from small
        to large."""
        if self._by_detections is None:
            detections = FaultSimulator(self.circuit).detection_matrix(
                self.patterns, self.targets
            )
            order = np.argsort(detections.sum(axis=0), kind="stable")
            self._by_detections = [self.targets[i] for i in order]
        faults = self._by_detections
        edges = [round(i * len(faults) / count) for i in range(count + 1)]
        return [
            make_fail_log(
                self.circuit,
                self.patterns,
                choose_faults(faults[lo:hi], 1, rng),
                compiled=self._compiled,
            )
            for lo, hi in zip(edges, edges[1:])
        ]


class ServeDictionary(Workload):
    """``serve_dictionary``: ``/diagnose`` requests against a worker.

    The end-to-end run talks to ``repro serve`` in its own process; the
    traced run hosts the worker in this process (so the calls into the
    flow and diagnosis layers can be wrapped) with metrics on.
    """

    name = "serve_dictionary"
    circuits = ("c880",)
    #: Requests per second the closed loop sustains, for the op count.
    nominal_op_s = 1 / 25.0
    connections = 2
    #: Distinct fail logs the requests cycle through.
    pool = 32

    def __init__(self, root, seed, seconds) -> None:
        super().__init__(root, seed, seconds)
        self.n_ops += self.n_ops % self.connections
        self.process = None
        self.background = None
        self.replies: list = []

    def setup(self, traced):
        start = time.perf_counter()
        telemetry = self.telemetry(traced)
        self.inputs = DiagnosisInputs(telemetry)
        flow_s = time.perf_counter() - start
        if traced:
            read_counters(telemetry.metrics, self.counters)
        self.logs = self.inputs.logs(self.rng, self.pool)
        self.requests = [
            tuple(r.to_string() for r in log.responses) for log in self.logs
        ]
        if traced:
            from repro.serve import BackgroundServer, ServeConfig

            start = time.perf_counter()
            self.background = BackgroundServer(ServeConfig(port=0, metrics=True))
            self.background.__enter__()
            self.address = (self.background.host, self.background.port)
            worker_s = time.perf_counter() - start
        else:
            starts = []
            for _ in range(COLD_STARTS):
                if self.process is not None:
                    self._stop_worker()
                start = time.perf_counter()
                self._start_worker()
                starts.append(time.perf_counter() - start)
            worker_s = statistics.median(starts)
        start = time.perf_counter()
        self._upload()
        return flow_s + worker_s + time.perf_counter() - start

    def _start_worker(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=child_env(self.root),
            cwd=self.root,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        match = re.search(r"http://([^:]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"serve worker did not start: {line!r}")
        self.address = (match.group(1), int(match.group(2)))

    def _stop_worker(self) -> None:
        process, self.process = self.process, None
        process.terminate()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()

    def _upload(self) -> None:
        """Register the pattern set inline and build the dictionary."""
        from repro.serve import DiagnoseRequest, ServeClient

        with ServeClient(*self.address) as client:
            reply = client.diagnose(
                DiagnoseRequest(
                    circuit=self.inputs.circuit_name,
                    patterns=tuple(p.to_string() for p in self.inputs.patterns),
                    responses=self.requests[0],
                    scale=SCALE,
                )
            )
        self.patterns_ref = reply.patterns_ref

    def operations(self):
        return [i % self.pool for i in range(self.n_ops)]

    def run_ops(self, ops, recorder=None):
        from repro.serve import DiagnoseRequest, ServeClient

        traced = recorder is not None
        latencies: list[list[float]] = [[] for _ in range(self.connections)]
        errors: list[int] = [0] * self.connections
        replies: list[list] = [[] for _ in range(self.connections)]

        def connection(lane: int) -> None:
            with ServeClient(*self.address) as client:
                for log_index in ops[lane :: self.connections]:
                    request = DiagnoseRequest(
                        circuit=self.inputs.circuit_name,
                        patterns_ref=self.patterns_ref,
                        responses=self.requests[log_index],
                        scale=SCALE,
                    )
                    start = time.perf_counter()
                    index = recorder.begin(OP_SPAN) if traced else None
                    try:
                        reply = client.diagnose(request)
                    except Exception:
                        errors[lane] += 1
                        traceback.print_exc()
                        continue
                    finally:
                        if traced:
                            recorder.end(index)
                        latencies[lane].append(time.perf_counter() - start)
                    replies[lane].append((log_index, reply, latencies[lane][-1]))

        threads = [
            threading.Thread(target=connection, args=(lane,), daemon=True)
            for lane in range(self.connections)
        ]
        wall = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
        wall = time.perf_counter() - wall
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("serve load generator did not finish")
        done = [reply for lane in replies for reply in lane]
        if traced:
            waits = [latency - reply.seconds for _, reply, latency in done]
            self.extra["serve.wait_ms"] = 1000.0 * statistics.mean(waits)
        else:
            self.replies = done
        return [x for lane in latencies for x in lane], wall, sum(errors)

    def stats(self) -> dict:
        from repro.serve import ServeClient

        with ServeClient(*self.address) as client:
            return client.stats()["batcher"]

    def before_trace(self):
        self.stats_before = self.stats()

    def finish_trace(self, untraced_latencies):
        after = self.stats()
        batches = after["batches"] - self.stats_before["batches"]
        requests = after["batched_requests"] - self.stats_before["batched_requests"]
        self.extra["serve.batches"] = batches
        self.extra["serve.batch_occupancy"] = requests / batches
        ordered = sorted(untraced_latencies)
        self.extra["serve.op_ms.p90"] = 1000.0 * ordered[int(0.9 * len(ordered))]
        self.extra["diagnosis.resolution"] = statistics.mean(
            ties_at_best(DiagnosisResult.from_dict(reply.result))
            for _, reply, _ in self.replies
        )
        read_counters(self.background.server.telemetry.metrics, self.counters)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the serve worker")

    def table1(self):
        return self.inputs.flow.test_length, self.inputs.flow.n_triplets

    def solvers(self):
        return {"c880/adder": self.inputs.flow.cover.stats.solver}

    def check(self):
        """Every served body equals the in-process ``Session.diagnose``
        of its log, and that diagnosis lists the injected fault."""
        session = Session(self.inputs.circuit)
        self.local = {
            i: session.diagnose(self.logs[i], method="dictionary", top_k=TOP_K)
            for i in sorted({i for i, _, _ in self.replies})
        }
        served: dict[int, list[str]] = {}
        for log_index, reply, _ in self.replies:
            served.setdefault(log_index, []).append(to_json(reply.result))
        failures = []
        for log_index, bodies in sorted(served.items()):
            local = self.local[log_index]
            expected = to_json(diagnosis_result_to_dict(local))
            failures += check_served(bodies, expected, f"log {log_index}")
            failures += check_diagnosis(
                self.inputs.circuit, self.logs[log_index], local, TOP_K
            )
        return failures

    def selftest(self):
        first = next(iter(self.local.values()))
        failures = selftest_served(to_json(diagnosis_result_to_dict(first)))
        for log_index, local in self.local.items():
            if ties_at_best(local) < TOP_K:
                return failures + selftest_diagnosis(
                    self.inputs.circuit, self.logs[log_index], local, TOP_K
                )
        return failures + ["no diagnosis with fewer than top_k ties to corrupt"]

    def close(self):
        if self.process is not None:
            self._stop_worker()
        if self.background is not None:
            self.background.stop()
            self.background = None


WORKLOADS = {
    cls.name: cls for cls in (FlowCold, Table1Warm, ServeDictionary)
}
