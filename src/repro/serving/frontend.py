"""Line-oriented front-end for :class:`~repro.serving.service.TruthService`.

The ``repro serve`` subcommand drives a service over JSON lines: one
request object per stdin line, one response object per stdout line —
trivially scriptable (``echo '{"op": ...}' | python -m repro serve``)
and enough to smoke-test the serving stack end to end without a network
dependency.

Requests
--------
``{"op": "ingest", "claims": [{"source", "object", "attribute", "value"}, ...]}``
    Admit the claims and wait for them to apply; responds with the
    covering snapshot's version/watermark.  Overload responds with
    ``{"ok": false, "error": "overloaded", "retry_after_seconds": ...}``.
``{"op": "query", "object": ..., "attribute": ...}``
    Point read against the current snapshot.
``{"op": "snapshot"}``
    The full current snapshot in the ``tdac-result/v1`` schema.
``{"op": "stats"}``
    Serving / engine / cache counters.

Both front-ends share one request path: :func:`decode_request`,
:func:`route` (tenant resolution), :func:`ingest_ack` and
:func:`overloaded` are the only implementations of the line decode, the
tenant routing and the two ingest envelopes, and
:mod:`repro.serving.net` adds only what is asynchronous — off-loop
admission and the ticket await.

:func:`run_smoke` is the self-driving round trip behind
``repro serve --smoke`` and ``make test-serving``: it ingests against a
live service and asserts the published snapshot is bit-identical to an
offline :meth:`TDAC.run <repro.core.tdac.TDAC.run>` replay.
"""

from __future__ import annotations

import json
from typing import IO, Any, Iterable

from repro.data.types import Claim
from repro.serving.schema import envelope_error, envelope_tag
from repro.serving.service import (
    IngestTicket,
    ServiceOverloadedError,
    TruthService,
)


def parse_claims(raw: Any) -> list[Claim]:
    """Coerce the wire-format ``claims`` payload into :class:`Claim` rows."""
    if not isinstance(raw, list) or not raw:
        raise ValueError("'claims' must be a non-empty list")
    claims = []
    for entry in raw:
        try:
            claims.append(
                Claim(
                    source=entry["source"],
                    object=entry["object"],
                    attribute=entry["attribute"],
                    value=entry["value"],
                )
            )
        except (TypeError, KeyError) as exc:
            raise ValueError(
                "each claim needs source/object/attribute/value"
            ) from exc
    return claims


def decode_request(raw: str | bytes) -> dict:
    """Parse one request line; a non-object raises :class:`ValueError`."""
    request = json.loads(raw)
    if not isinstance(request, dict):
        raise ValueError("request must be a JSON object")
    return request


def route(service, request: dict) -> tuple[Any, str | None]:
    """The handle that serves ``request`` and the tenant it answers as.

    A registry resolves the request's (possibly absent) ``tenant`` field
    to its handle — raising :class:`KeyError` for an unknown name — and
    the handle advertises the routing context stamped onto the
    ``tdac-serve/v1`` envelope; a bare :class:`TruthService` serves
    every request itself and has none.
    """
    resolver = getattr(service, "resolve_tenant", None)
    if resolver is not None:
        service = resolver(request.get("tenant"))
    context = getattr(service, "wire_context", None) or {}
    return service, context.get("tenant")


def unknown_tenant(exc: KeyError) -> dict:
    """The rejection for a request :func:`route` could not place."""
    return envelope_error(str(exc.args[0] if exc.args else exc))


def overloaded(
    retry_after_seconds: float,
    *,
    op: str | None = None,
    tenant: str | None = None,
) -> dict:
    """The backpressure rejection every front-end answers with."""
    return envelope_error(
        "overloaded",
        op=op,
        retry_after_seconds=retry_after_seconds,
        tenant=tenant,
    )


def ingest_ack(ticket: IngestTicket, snapshot, tenant: str | None) -> dict:
    """The ``ingest`` response once ``snapshot`` covers ``ticket``."""
    return envelope_tag(
        {
            "ok": True,
            "op": "ingest",
            "applied": len(ticket.claims),
            "offset": ticket.offset,
            "version": snapshot.version,
            "watermark": snapshot.watermark,
        },
        tenant=tenant,
    )


def handle_request(service: TruthService, request: dict) -> dict:
    """Serve one already-parsed request object; never raises for bad input.

    ``ingest`` blocks until the batch is applied; the other ops are
    wait-free reads.  The network front-end reuses this for everything
    except ``ingest`` (which it bridges asynchronously so a deep queue
    does not pin one thread per in-flight request).
    """
    op = request.get("op")
    try:
        service, tenant = route(service, request)
    except KeyError as exc:
        return unknown_tenant(exc)

    def _tag(response: dict) -> dict:
        return envelope_tag(response, tenant=tenant)

    if op == "ingest":
        try:
            ticket = service.ingest(parse_claims(request.get("claims")))
            snapshot = ticket.wait()
        except ServiceOverloadedError as exc:
            return overloaded(
                exc.retry_after_seconds, op="ingest", tenant=tenant
            )
        return ingest_ack(ticket, snapshot, tenant)
    if op == "query":
        answer = service.query(request.get("object"), request.get("attribute"))
        return _tag(
            {
                "ok": True,
                "op": "query",
                "object": answer.object,
                "attribute": answer.attribute,
                "value": answer.value,
                "found": answer.found,
                "version": answer.version,
                "watermark": answer.watermark,
                "exact": answer.exact,
            }
        )
    if op == "snapshot":
        return _tag(
            {"ok": True, "op": "snapshot", "snapshot": service.snapshot().to_dict()}
        )
    if op == "stats":
        return _tag({"ok": True, "op": "stats", "stats": service.stats})
    return envelope_error(f"unknown op {op!r}", tenant=tenant)


def serve_jsonl(
    service: TruthService, lines: Iterable[str], out: IO[str]
) -> int:
    """Drive ``service`` from JSON-lines requests; returns an exit code.

    Malformed lines produce an ``{"ok": false}`` response instead of
    stopping the loop, so one bad client request cannot kill the server.
    A consumer that vanishes mid-stream (``BrokenPipeError``, or the
    ``ValueError`` a closed text stream raises) ends the loop cleanly
    instead of escaping as an unhandled traceback — the caller's
    ``service.stop()`` then drains and checkpoints as usual.
    """
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            response = handle_request(service, decode_request(line))
        except Exception as exc:  # a bad request must not stop serving
            response = envelope_error(str(exc))
        try:
            out.write(json.dumps(response, sort_keys=True, default=str) + "\n")
            out.flush()
        except (BrokenPipeError, ValueError):
            # The consumer is gone; there is nobody left to respond to.
            break
    return 0


def run_smoke(
    algorithm: str = "MajorityVote",
    out: IO[str] | None = None,
    seed: int = 0,
) -> int:
    """Self-driving serve round trip; 0 iff the bit-identity check holds.

    Starts a service on a small synthetic corpus, ingests two claim
    batches (one touching a brand-new object), queries, then replays the
    accumulated claims offline through ``TDAC.run`` and asserts the
    served snapshot matches field for field.
    """
    import sys

    from repro.algorithms import create
    from repro.core import TDAC, TDACConfig
    from repro.datasets import make_synthetic
    from repro.observability import SpanTracer
    from repro.serving.config import ServiceConfig

    out = sys.stdout if out is None else out
    dataset = make_synthetic("DS1", n_objects=20, seed=seed).dataset
    config = TDACConfig(seed=seed)
    tracer = SpanTracer()
    service = TruthService(
        create(algorithm),
        dataset,
        config=config,
        service_config=ServiceConfig(max_wait_ms=1.0),
        tracer=tracer,
    )
    with service:
        source = dataset.sources[0]
        attribute = dataset.attributes[0]
        first = service.ingest(
            [Claim(source, "smoke-object", attribute, "smoke-value")],
            wait=True,
        ).wait()
        second = service.ingest(
            [
                Claim(s, "smoke-object", dataset.attributes[1], 7)
                for s in dataset.sources[:2]
            ],
            wait=True,
        ).wait()
        answer = service.query("smoke-object", attribute)
        snapshot = service.snapshot()
        replayed = service.replay_dataset(snapshot.watermark)
        offline = TDAC(create(algorithm), config=config).run(replayed)
    checks = {
        "query_found": answer.found and answer.value == "smoke-value",
        # Micro-batching may coalesce the two ingests into one refit, so
        # the final version is 2 or 3 depending on load; what the service
        # guarantees is strict monotonicity past the start snapshot and
        # that every admitted claim is covered by the final watermark.
        "versions_monotone": (
            1 < first.version <= second.version <= snapshot.version
        ),
        "watermark": snapshot.watermark == 3,
        "predictions_identical": (
            dict(snapshot.predictions) == dict(offline.result.predictions)
        ),
        "trust_identical": (
            dict(snapshot.source_trust) == dict(offline.result.source_trust)
        ),
        "partition_identical": snapshot.partition == offline.partition,
        "serve_spans_traced": any(
            span.name.startswith("serve.") for span in tracer.spans
        ),
        "batch_counters": tracer.counters.get("serve.batch", 0) >= 2,
    }
    ok = all(checks.values())
    out.write(
        json.dumps(
            envelope_tag(
                {"ok": ok, "op": "smoke", "checks": checks,
                 "stats": service.stats}
            ),
            sort_keys=True,
            default=str,
        )
        + "\n"
    )
    return 0 if ok else 1
