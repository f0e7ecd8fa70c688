"""Benchmark-side spans around the calls into each layer of ``repro``.

Nothing inside ``src/`` is instrumented for this benchmark: spans are
opened here, around the public functions a workload calls.  For the
progressive sweep the real runner stays in the path — the task
adapter's ``coloring_spec``/``reduce``/``solve``/``lift`` and the
``ProgressiveRun`` methods the runner drives are wrapped on the very
objects the benchmark hands to :func:`repro.pipeline.progressive_sweep`.

A layer's self time is its spans' duration minus the part of that
interval covered by child spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from repro.pipeline import ColoringCache


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    """In-memory span list; disabled tracers record nothing."""

    enabled: bool = True
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1].id if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, func: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for span in self.spans:
            covered = _union_length(
                (child.start, child.end) for child in children.get(span.id, ())
            )
            own = (span.end - span.start) - covered
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write_jsonl(self, path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "start": span.start - origin,
                            "end": span.end - origin,
                            "parent": span.parent,
                        }
                    )
                    + "\n"
                )


def _union_length(intervals) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def trace_task(task, tracer: Tracer):
    """Route the adapter's pipeline stages through ``tracer`` (instance
    attributes shadow the class methods the runner calls)."""
    task.coloring_spec = tracer.wrap("pipeline.spec", task.coloring_spec)
    task.reduce = tracer.wrap("pipeline.reduce", task.reduce)
    task.solve = tracer.wrap("solvers.reduced_solve", task.solve)
    task.lift = tracer.wrap("pipeline.lift", task.lift)
    return task


class TracedColoringCache(ColoringCache):
    """A :class:`ColoringCache` whose runs report coloring work as
    ``core.color`` and block-weight upkeep, which feeds the reduce, as
    ``pipeline.reduce``."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def run_for(self, spec):
        # A miss builds the Rothko engine (initial degree state).
        with self.tracer.span("core.color"):
            run = super().run_for(spec)
        if "advance" not in vars(run):
            # Instance attributes shadow the methods; resolve() reaches
            # advance() through self, so it is traced too.
            run.advance = self.tracer.wrap("core.color", run.advance)
            run.coloring = self.tracer.wrap("core.color", run.coloring)
            run.weights = self.tracer.wrap("pipeline.reduce", run.weights)
        return run
