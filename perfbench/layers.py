"""Per-layer timing for the traced run: spans around the public calls
into each layer, recorded from outside the program.

:class:`SpanRecorder` swaps each listed callable for a thin wrapper that
records one span per call (name, parent, start, end) and puts
the original back on :meth:`SpanRecorder.uninstall`.  A function that
other modules bound with ``from module import name`` is replaced in
every loaded ``repro`` module that holds the same object, so the call
sites see the wrapper whichever way they imported it.  Nothing inside
the program is edited: the spans sit at layer boundaries only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass

#: (module, attribute path, span name): the public calls the traced run
#: wraps.  A dotted attribute path names a method or classmethod.
LAYER_CALLS: tuple[tuple[str, str, str], ...] = (
    ("repro.circuits.catalog", "load_circuit", "circuits.load"),
    ("repro.faults.collapse", "collapse_faults", "faults.collapse"),
    ("repro.sim.batch", "BatchFaultSimulator.__init__", "sim.compile"),
    ("repro.sim.batch", "BatchFaultSimulator.fault_coverage", "sim.fault_coverage"),
    ("repro.atpg.engine", "AtpgEngine.run", "atpg.run"),
    ("repro.atpg.random_gen", "random_phase", "atpg.random"),
    ("repro.atpg.compaction", "reverse_order_compaction", "atpg.compact"),
    ("repro.tpg.base", "TestPatternGenerator.evolve_batch", "tpg.evolve"),
    (
        "repro.reseeding.initial",
        "InitialReseedingBuilder.build_from_atpg",
        "reseeding.initial",
    ),
    ("repro.reseeding.detection_matrix", "build_detection_matrix", "reseeding.matrix"),
    ("repro.reseeding.trim", "trim_solution", "reseeding.trim"),
    ("repro.setcover.matrix", "CoverMatrix.from_bool_array", "setcover.matrix"),
    ("repro.setcover.solve", "solve_cover", "setcover.solve"),
    ("repro.setcover.reduce", "reduce_matrix", "setcover.reduce"),
    ("repro.diagnosis.dictionary", "FaultDictionary.build", "diagnosis.dictionary_build"),
    ("repro.diagnosis.dictionary", "FaultDictionary.diagnose_many", "diagnosis.lookup"),
    ("repro.flow.session", "Session.diagnose_batch", "serve.compute"),
    ("repro.serve.client", "ServeClient.diagnose", "serve.request"),
)

#: Work counts taken from the return value of a wrapped call, by span name.
SIZES = {
    "atpg.run": lambda r: {"atpg.podem_patterns": r.podem_patterns},
    "tpg.evolve": lambda r: {"tpg.patterns": r.n_patterns},
    "reseeding.matrix": lambda r: {
        "reseeding.matrix_rows": r.n_triplets,
        "reseeding.matrix_cells": r.n_faults * sum(t.length for t in r.triplets),
    },
    "setcover.solve": lambda r: {
        "setcover.core_cells": r.stats.reduced_shape[0] * r.stats.reduced_shape[1]
    },
}

#: Span name the benchmark itself opens around one operation.
OP_SPAN = "op"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    #: Inclusive duration of the direct child spans (same thread).
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records spans from wrapped calls; thread-safe, in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: Work counts from :data:`SIZES`, summed over recorded calls.
        self.counts: dict[str, float] = {}

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, time.perf_counter())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.seconds

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, func, name: str):
        size = SIZES.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(index)
            if size is not None:
                with self._lock:
                    for key, value in size(result).items():
                        self.counts[key] = self.counts.get(key, 0) + value
            return result

        return wrapper

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every call in :data:`LAYER_CALLS`."""
        for module_name, path, name in LAYER_CALLS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    value = classmethod(self._wrap(raw.__func__, name))
                else:
                    value = self._wrap(raw, name)
                self._patch(owner, attr, value)
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, name)
            for loaded_name, loaded in list(sys.modules.items()):
                if (
                    loaded_name.split(".")[0] == "repro"
                    and getattr(loaded, "__dict__", {}).get(path) is original
                ):
                    self._patch(loaded, path, wrapper)

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries -----------------------------------------------------------

    def ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def named(self, name: str) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.name == name]

    def total_ms(self, name: str) -> float:
        """Inclusive milliseconds in spans called ``name``; a span nested
        in another of the same name is not counted twice."""
        total = 0.0
        for index, span in self.named(name):
            if any(a.name == name for a in self.ancestors(index)):
                continue
            total += span.seconds
        return 1000.0 * total

    def nested_ms(self, name: str, inside: str) -> float:
        """Milliseconds in ``name`` spans that run inside an ``inside``
        span (outermost ``name`` spans only)."""
        total = 0.0
        for index, span in self.named(name):
            chain = [a.name for a in self.ancestors(index)]
            if inside in chain and name not in chain:
                total += span.seconds
        return 1000.0 * total

    def child_ms(self, name: str, parent: str) -> float:
        """Milliseconds in ``name`` spans whose direct parent is a
        ``parent`` span."""
        return 1000.0 * sum(
            span.seconds
            for _, span in self.named(name)
            if span.parent is not None and self.spans[span.parent].name == parent
        )

    def mean_ms(self, name: str) -> float:
        spans = self.named(name)
        return 1000.0 * sum(s.seconds for _, s in spans) / len(spans) if spans else 0.0

    def ops(self) -> list[Span]:
        return [span for _, span in self.named(OP_SPAN)]
