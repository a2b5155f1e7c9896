"""Correctness checks, run outside the timed window.

Each check recomputes what it verifies along a path apart from the one
that produced it, and returns a list of failure messages (empty when
the result is right):

* :func:`check_flow` — trimmed lengths within T; the cover hits every
  Detection Matrix column and a branch-and-bound re-solve of the
  reduced core has the same cardinality; the trimmed reseeding,
  re-evolved with the scalar ``TestPatternGenerator.evolve``, detects a
  seeded sample of the target faults under ``SerialFaultSimulator``.
* :func:`check_diagnosis` — no candidate outranks the injected fault's
  own score on the diagnosed window, and the injected fault (or a twin
  with identical responses, simulated by the multi-fault machine of
  ``repro.diagnosis.inject``) is listed whenever fewer than ``top_k``
  candidates tie at the best score.
* :func:`check_served` — every served body equals the in-process
  ``Session.diagnose`` body for its log.

:func:`selftest_flow`, :func:`selftest_diagnosis` and
:func:`selftest_served` feed each check a corrupted copy of a real
result and report a failure when the check accepts it, so that no check
passes vacuously.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.diagnosis.inject import faulty_responses
from repro.reseeding.triplet import ReseedingSolution
from repro.setcover.exact import branch_and_bound
from repro.setcover.matrix import CoverMatrix
from repro.setcover.reduce import reduce_matrix
from repro.sim.fault import SerialFaultSimulator
from repro.sim.logic import CompiledCircuit

#: Target faults re-checked per flow under the serial simulator.
FAULT_SAMPLE = 64


def fault_sample(faults, rng, size: int = FAULT_SAMPLE) -> list:
    """A seeded sample of ``faults`` (all of them when fewer)."""
    faults = list(faults)
    if len(faults) <= size:
        return faults
    return [faults[i] for i in sorted(rng.sample(range(len(faults)), size))]


# -- reseeding flow ---------------------------------------------------------


def check_lengths(solution: ReseedingSolution, length: int) -> list[str]:
    bad = [t.length for t in solution.triplets if not 1 <= t.length <= length]
    return [f"trimmed lengths outside 1..{length}: {bad[:5]}"] if bad else []


def check_cover(matrix: np.ndarray, selected, n_solver_selected: int) -> list[str]:
    failures = []
    rows = np.asarray(sorted(selected), dtype=int)
    if rows.size and (rows.min() < 0 or rows.max() >= matrix.shape[0]):
        return [f"cover selects rows outside 0..{matrix.shape[0] - 1}"]
    hit = matrix[rows].any(axis=0) if rows.size else np.zeros(matrix.shape[1], bool)
    if not hit.all():
        failures.append(
            f"cover misses {int((~hit).sum())} of {matrix.shape[1]} matrix columns"
        )
    core = reduce_matrix(CoverMatrix.from_bool_array(matrix)).core
    if not core.is_empty():
        exact = branch_and_bound(core)
        if not exact.optimal:
            failures.append("branch-and-bound re-solve hit its node limit")
        elif len(exact.selected) != n_solver_selected:
            failures.append(
                f"core solved with {n_solver_selected} rows, "
                f"branch-and-bound needs {len(exact.selected)}"
            )
    elif n_solver_selected:
        failures.append(f"empty core but {n_solver_selected} solver rows")
    return failures


def check_detects(circuit, tpg, solution: ReseedingSolution, faults) -> list[str]:
    patterns = solution.patterns(tpg)  # scalar evolve, one triplet at a time
    flags = SerialFaultSimulator(circuit).detected(patterns, list(faults))
    missed = [f for f, hit in zip(faults, flags) if not hit]
    if missed:
        return [f"trimmed reseeding misses {len(missed)} sampled faults, e.g. {missed[0]}"]
    return []


def check_flow(circuit, tpg, result, sample) -> list[str]:
    """All flow checks on one ``PipelineResult``."""
    solution = result.trimmed.solution
    return (
        check_lengths(solution, result.config.evolution_length)
        + check_cover(
            result.detection_matrix.matrix,
            result.cover.selected,
            result.cover.stats.n_solver_selected,
        )
        + check_detects(circuit, tpg, solution, sample)
    )


def selftest_flow(circuit, tpg, result, sample) -> list[str]:
    """Corrupt one flow result three ways; each check must object."""
    failures = []
    solution = result.trimmed.solution
    length = result.config.evolution_length
    longer = ReseedingSolution(
        (solution.triplets[0].with_length(length + 1),) + solution.triplets[1:]
    )
    if not check_lengths(longer, length):
        failures.append("length check accepted a triplet longer than T")
    matrix = result.detection_matrix.matrix
    short_cover = [r for r in result.cover.selected if not matrix[r, 0]]
    if not check_cover(matrix, short_cover, result.cover.stats.n_solver_selected):
        failures.append("cover check accepted a cover missing column 0")
    target = sample[0]
    serial = SerialFaultSimulator(circuit)
    kept = tuple(
        t for t in solution.triplets
        if not serial.detected(t.test_set(tpg), [target])[0]
    )
    if not check_detects(circuit, tpg, ReseedingSolution(kept), sample):
        failures.append(f"detection check accepted a trim that drops {target}")
    return failures


# -- diagnosis --------------------------------------------------------------


def _window(result, n_patterns: int) -> tuple[int, int]:
    return result.window if result.window is not None else (0, n_patterns)


def ties_at_best(result) -> int:
    """Returned candidates tied at the best score."""
    if not result.candidates:
        return 0
    best = result.candidates[0].score
    return sum(1 for c in result.candidates if c.score == best)


def check_diagnosis(circuit, log, result, top_k: int) -> list[str]:
    """The injected-fault checks on one ``DiagnosisResult``."""
    (injected,) = log.injected
    start, stop = _window(result, log.n_patterns)
    compiled = CompiledCircuit(circuit)
    patterns = log.patterns[start:stop]
    observed = log.responses[start:stop]
    golden = faulty_responses(compiled, patterns, ())
    failing = [g != o for g, o in zip(golden, observed)]
    own = faulty_responses(compiled, patterns, (injected,))
    predicted = [g != r for g, r in zip(golden, own)]
    own_score = sum(p and f for p, f in zip(predicted, failing)) - sum(
        p != f for p, f in zip(predicted, failing)
    )
    failures = []
    if not any(failing):
        failures.append(f"{result.mode}: log for {injected} has no failing pattern")
    if not result.candidates:
        return failures + [f"{result.mode}: no candidates for {injected}"]
    top = max(result.candidates, key=lambda c: c.score)
    if top.score > own_score:
        failures.append(
            f"{result.mode}: {top.fault} scores {top.score} above injected "
            f"{injected} ({own_score})"
        )
    if ties_at_best(result) < top_k:
        listed = [c.fault for c in result.candidates]
        twin = injected in listed or any(
            faulty_responses(compiled, patterns, (fault,)) == own for fault in listed
        )
        if not twin:
            failures.append(
                f"{result.mode}: neither {injected} nor a twin is listed"
            )
    return failures


def selftest_diagnosis(circuit, log, result, top_k: int) -> list[str]:
    """Drop the injected fault and its twins from a real candidate
    list; the check must object."""
    (injected,) = log.injected
    start, stop = _window(result, log.n_patterns)
    compiled = CompiledCircuit(circuit)
    own = faulty_responses(compiled, log.patterns[start:stop], (injected,))
    others = [
        c for c in result.candidates
        if c.fault != injected
        and faulty_responses(compiled, log.patterns[start:stop], (c.fault,)) != own
    ]
    corrupted = dataclasses.replace(result, candidates=others)
    if not check_diagnosis(circuit, log, corrupted, top_k):
        return [f"{result.mode}: check accepted a list without {injected} or a twin"]
    return []


# -- serve ------------------------------------------------------------------


def check_served(bodies: list[str], expected: str, label: str) -> list[str]:
    wrong = sum(1 for body in bodies if body != expected)
    return [f"{label}: {wrong} of {len(bodies)} served bodies differ"] if wrong else []


def selftest_served(expected: str) -> list[str]:
    middle = len(expected) // 2
    flipped = chr(ord(expected[middle]) ^ 1)
    corrupted = expected[:middle] + flipped + expected[middle + 1:]
    if not check_served([corrupted], expected, "selftest"):
        return ["serve check accepted a body that differs by one byte"]
    return []
