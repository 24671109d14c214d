"""Structured JSON run reports built from a :class:`SpanTracer`.

The report is the artefact behind the CLI's ``--trace out.json`` flag
and the bench harness's per-stage records: a stable, versioned schema
(see :data:`TRACE_SCHEMA`) with the per-stage wall times, the full span
list, the named counters (e.g. WAL appends) and a coverage
ratio stating how much of the measured wall time the stages account
for.  Schema stability is pinned by a golden test.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.observability.tracer import SpanTracer

#: Version tag embedded in every report; bump on breaking schema change.
TRACE_SCHEMA = "tdac-trace/v1"

#: Keys every trace report carries, in emission order.  ``gauges`` is a
#: v1-additive key (level-style samples: queue depth, batch occupancy);
#: consumers of older reports can treat it as absent-means-empty.
TRACE_REPORT_KEYS = (
    "schema",
    "total_seconds",
    "stage_seconds",
    "stage_fractions",
    "stage_coverage",
    "spans",
    "counters",
    "gauges",
    "context",
)


def trace_report(
    tracer: SpanTracer,
    total_seconds: float | None = None,
    context: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Render ``tracer`` as a JSON-ready run report.

    ``total_seconds`` is the externally measured wall time of the traced
    region (defaults to the sum of top-level stages); ``stage_coverage``
    is the ratio of stage sum to that total, the quantity the acceptance
    check "stages sum to within 5% of wall time" reads.
    """
    stages = tracer.stage_seconds()
    stage_sum = sum(stages.values())
    total = stage_sum if total_seconds is None else float(total_seconds)
    fractions = (
        {name: seconds / total for name, seconds in stages.items()}
        if total > 0
        else {name: 0.0 for name in stages}
    )
    return {
        "schema": TRACE_SCHEMA,
        "total_seconds": total,
        "stage_seconds": stages,
        "stage_fractions": fractions,
        "stage_coverage": (stage_sum / total) if total > 0 else 1.0,
        "spans": [span.as_dict() for span in tracer.spans],
        "counters": dict(tracer.counters),
        "gauges": {name: dict(state) for name, state in tracer.gauges.items()},
        "context": dict(context or {}),
    }


def write_trace(
    path: str | Path,
    tracer: SpanTracer,
    total_seconds: float | None = None,
    context: dict[str, Any] | None = None,
) -> Path:
    """Write the report of ``tracer`` to ``path`` and return the path."""
    report = trace_report(tracer, total_seconds=total_seconds, context=context)
    destination = Path(path)
    destination.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return destination
