"""Lightweight span tracing for the TD-AC pipeline.

Every stage of a TD-AC run — reference pass, truth-vector build,
distance matrix, k-sweep, silhouette scoring, per-block solves, merge —
is wrapped in a *span*: a named wall-clock interval with an optional
parent.  A :class:`SpanTracer` collects the spans of one run plus a set
of named counters (e.g. applied batches, WAL appends), and can render
both as a structured report (see :mod:`repro.observability.report`) or
fold them into the evaluation harness's
:class:`~repro.metrics.timing.Stopwatch`.

The tracer is *ambient*: pipeline stages call :func:`current_tracer`
instead of threading a tracer argument through every signature.  When no
tracer has been activated the module-level :data:`NULL_TRACER` absorbs
all calls at near-zero cost, so instrumented code pays nothing in
untraced runs.  This module is pure stdlib so every layer can import it
without cycles.

>>> tracer = SpanTracer()
>>> with activate(tracer):
...     with current_tracer().span("reference"):
...         pass
>>> list(tracer.stage_seconds()) == ["reference"]
True
"""

from __future__ import annotations

import contextlib
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class Span:
    """One closed wall-clock interval of a traced run."""

    name: str
    seconds: float
    parent: str | None = None
    depth: int = 0
    meta: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "parent": self.parent,
            "depth": self.depth,
            "meta": dict(self.meta),
        }


class SpanTracer:
    """Collects spans and counters for one pipeline run.

    Parameters
    ----------
    stopwatch:
        Optional :class:`~repro.metrics.timing.Stopwatch` (or anything
        with an ``add(phase, seconds)`` method); every closed top-level
        span is mirrored into it, integrating the tracer with the
        existing per-phase timing of the evaluation harness.
    """

    def __init__(self, stopwatch: Any | None = None) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, dict[str, float]] = {}
        self._stack: list[str] = []
        self._stopwatch = stopwatch

    @contextlib.contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[dict[str, Any]]:
        """Context manager recording one named interval.

        Spans nest: a span opened while another is running records the
        enclosing span's name as its parent and its nesting depth, so
        reports can distinguish top-level pipeline stages (depth 0) from
        their internals.  The context yields the span's ``meta`` dict;
        entries added inside the block (e.g. work counts known only at
        the end) are recorded with the span.
        """
        parent = self._stack[-1] if self._stack else None
        depth = len(self._stack)
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield meta
        finally:
            seconds = time.perf_counter() - start
            self._stack.pop()
            self.spans.append(Span(name, seconds, parent, depth, dict(meta)))
            if self._stopwatch is not None and depth == 0:
                self._stopwatch.add(name, seconds)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Record an instantaneous sample of the named gauge.

        Counters only accumulate; gauges capture level-style quantities
        (queue depth, batch occupancy).  The tracer keeps the last and
        maximum sample plus the sample count per gauge — enough for the
        report without storing every observation.
        """
        state = self.gauges.get(name)
        value = float(value)
        if state is None:
            self.gauges[name] = {"last": value, "max": value, "samples": 1}
        else:
            state["last"] = value
            state["max"] = max(state["max"], value)
            state["samples"] += 1

    # ------------------------------------------------------------------

    def stage_seconds(self) -> dict[str, float]:
        """Top-level span name → accumulated seconds, in first-seen order.

        Depth-0 spans tile the traced run, so their sum approximates the
        total wall time of the pipeline (the report asserts this).
        """
        out: dict[str, float] = {}
        for span in self.spans:
            if span.depth == 0:
                out[span.name] = out.get(span.name, 0.0) + span.seconds
        return out

    @property
    def total_seconds(self) -> float:
        """Sum of the top-level stage times."""
        return sum(self.stage_seconds().values())

    def to_stopwatch(self, stopwatch: Any | None = None):
        """Fold the top-level stages into a Stopwatch and return it."""
        if stopwatch is None:
            from repro.metrics.timing import Stopwatch

            stopwatch = Stopwatch()
        for name, seconds in self.stage_seconds().items():
            stopwatch.add(name, seconds)
        return stopwatch


class NullTracer(SpanTracer):
    """Absorbing tracer used when no tracer is active.

    Records nothing, so instrumented code can call ``span``/``count``
    unconditionally.
    """

    def __init__(self) -> None:
        super().__init__()

    @contextlib.contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[dict[str, Any]]:
        yield meta

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass


NULL_TRACER = NullTracer()

_CURRENT: ContextVar[SpanTracer] = ContextVar("repro_tracer", default=NULL_TRACER)


def current_tracer() -> SpanTracer:
    """The tracer active in this context (``NULL_TRACER`` when none)."""
    return _CURRENT.get()


@contextlib.contextmanager
def activate(tracer: SpanTracer | None) -> Iterator[SpanTracer]:
    """Make ``tracer`` the ambient tracer for the enclosed block.

    ``activate(None)`` is a no-op, which lets call sites thread an
    optional tracer without branching.
    """
    if tracer is None:
        yield current_tracer()
        return
    token = _CURRENT.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)
