"""Span recording for the benchmark's traced runs.

A :class:`Tracer` keeps spans in memory — name, layer, start, end and the
span that was open when it started — and writes them out once, at the end of
the run.  Spans come from two places, both in the benchmark's own files:

* the workload code opens a span around each call it makes into a layer
  (dataset build, backend conversion, planning, ...);
* :func:`instrument` wraps the class attributes of layer entry points that
  the program calls internally (``SamplingRun.step``, transport ``execute``,
  ``EvolvingKnowledgeGraph.apply``, ...), so those calls record spans too.

Untraced runs use :data:`NULL_TRACER`, whose spans cost one no-op ``with``.
A layer's self time is the total duration of its spans minus the part their
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

#: The program's layers, as the per-layer metrics name them.
LAYERS = (
    "generators",
    "storage",
    "kg",
    "labels",
    "planner",
    "stratification",
    "sampling",
    "stats",
    "cost",
    "core",
    "evolving",
)


class Tracer:
    """In-memory span recorder for one repetition."""

    def __init__(self) -> None:
        self._spans: list[list] = []  # [name, layer, parent index, start, end]
        self._stack: list[int] = []
        self._suspended = 0

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        if self._suspended:
            yield
            return
        index = len(self._spans)
        record = [name, layer, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def suspended(self):
        """Record nothing inside this block (benchmark-side digests and checks)."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [end - start for span_name, _, _, start, end in self._spans if span_name == name]

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: span durations minus their children's."""
        child_total = defaultdict(float)
        for _, _, parent, start, end in self._spans:
            if parent >= 0:
                child_total[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for index, (_, layer, _, start, end) in enumerate(self._spans):
            totals[layer] += (end - start) - child_total[index]
        return totals

    def write(self, path: str) -> None:
        """Write every span as JSON (times relative to the first span)."""
        origin = self._spans[0][3] if self._spans else 0.0
        rows = [
            {
                "id": index,
                "parent": parent,
                "name": name,
                "layer": layer,
                "start_s": start - origin,
                "end_s": end - origin,
            }
            for index, (name, layer, parent, start, end) in enumerate(self._spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


class _NullTracer:
    """Tracer stand-in for untraced runs: every span is a no-op."""

    _null = contextlib.nullcontext()

    def span(self, name: str, layer: str):
        return self._null

    def suspended(self):
        return self._null


NULL_TRACER = _NullTracer()


def _wrap(owner: type, attribute: str, tracer: Tracer, name: str, layer: str) -> None:
    original = owner.__dict__[attribute]

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(name, layer):
            return original(*args, **kwargs)

    setattr(owner, attribute, traced)


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def instrument(tracer: Tracer) -> None:
    """Wrap the layer entry points the program calls internally.

    Patches class attributes in this process only; nothing under ``src/``
    changes.  Call once, before the workload starts.
    """
    from repro.core.framework import StaticEvaluator
    from repro.evolving.base import IncrementalEvaluator
    from repro.evolving.monitor import EvolvingAccuracyMonitor
    from repro.kg.updates import EvolvingKnowledgeGraph
    from repro.labels.oracle import LabelOracle
    from repro.sampling import shm  # noqa: F401  (registers its transport class)
    from repro.sampling.parallel import SamplingRun, ShardTransport

    targets = [
        (SamplingRun, "step", "sampling.step", "sampling"),
        (SamplingRun, "estimate", "stats.estimate", "stats"),
        (SamplingRun, "cost_summary", "cost.summary", "cost"),
        (LabelOracle, "as_position_array", "labels.position_array", "labels"),
        (LabelOracle, "as_dict", "labels.copy", "labels"),
        (LabelOracle, "extend", "labels.extend", "labels"),
        (IncrementalEvaluator, "current_true_accuracy", "labels.truth_batch", "labels"),
        (EvolvingKnowledgeGraph, "apply", "kg.apply", "kg"),
        (StaticEvaluator, "run", "core.static_run", "core"),
        (EvolvingAccuracyMonitor, "evaluate_base", "evolving.base_eval", "evolving"),
        (EvolvingAccuracyMonitor, "apply_update", "evolving.apply", "evolving"),
    ]
    targets += [
        (cls, "execute", "sampling.execute", "sampling")
        for cls in _subclasses(ShardTransport)
        if "execute" in cls.__dict__
    ]
    for owner, attribute, name, layer in targets:
        _wrap(owner, attribute, tracer, name, layer)
