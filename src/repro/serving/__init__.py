"""Serving layer: a long-lived, micro-batching truth discovery engine.

The ROADMAP's production framing — heavy query traffic over a stream of
claims — needs more than one-shot ``TDAC.run`` calls.  This package
provides it:

* :class:`~repro.serving.service.TruthService` — thread-safe
  query/ingest API with an admission queue, a micro-batcher
  (``max_batch_size`` / ``max_wait_ms``), bounded-queue backpressure and
  ``serve.*`` span/counter/gauge instrumentation;
* :class:`~repro.serving.snapshot.TruthSnapshot` — immutable,
  monotonically versioned read views with a claims-seen watermark and
  staleness metadata, each bit-identical to an offline ``TDAC.run``
  over the claims at its watermark;
* :mod:`~repro.serving.frontend` — the JSON-lines driver behind the
  ``repro serve`` CLI subcommand and its ``--smoke`` round trip;
* :mod:`~repro.serving.net` / :mod:`~repro.serving.client` — the
  asyncio TCP front-end behind ``repro serve --listen`` (persistent
  multiplexed connections, per-connection backpressure, graceful
  drain) and the matching reconnect/backoff/retry-after client;
* :class:`~repro.serving.config.ServiceConfig` — one frozen,
  fingerprintable config object holding every serving limit, the only
  one a serving stack has (the network front-end reads the served
  service's);
* :mod:`~repro.serving.schema` — the versioned ``tdac-serve/v1`` wire
  envelope every front-end response carries, with
  :class:`ServeEnvelope` / :func:`serve_envelope_from_dict` as the
  typed client-side view;
* :class:`~repro.serving.tenancy.TenantRegistry` — named tenants
  multiplexed over fingerprint-keyed shared :class:`TruthService`
  engines with per-tenant admission quotas, counters and WAL
  namespaces.

Durability is opt-in through :mod:`repro.store`: pass ``store=`` to
:class:`TruthService` and every admission is WAL-logged before its
ticket returns, checkpoints are cut periodically, and
:meth:`TruthService.restore` resumes the service bit-identically after
a crash.
"""

from repro.serving.client import (
    AsyncTruthClient,
    RetryPolicy,
    TruthClientError,
)
from repro.serving.config import REFIT_MODES, ServiceConfig
from repro.serving.frontend import handle_request, run_smoke, serve_jsonl
from repro.serving.net import TruthServer, serve_network
from repro.serving.schema import (
    SERVE_SCHEMA,
    ServeEnvelope,
    serve_envelope_from_dict,
)
from repro.serving.service import (
    IngestTicket,
    QueryAnswer,
    ServiceOverloadedError,
    ServiceStoppedError,
    TruthService,
)
from repro.serving.snapshot import TruthSnapshot
from repro.serving.tenancy import (
    TenantHandle,
    TenantQuotaError,
    TenantRegistry,
    UnknownTenantError,
)

__all__ = [
    "AsyncTruthClient",
    "IngestTicket",
    "QueryAnswer",
    "REFIT_MODES",
    "RetryPolicy",
    "SERVE_SCHEMA",
    "ServeEnvelope",
    "ServiceConfig",
    "ServiceOverloadedError",
    "ServiceStoppedError",
    "TenantHandle",
    "TenantQuotaError",
    "TenantRegistry",
    "TruthClientError",
    "TruthServer",
    "TruthService",
    "TruthSnapshot",
    "UnknownTenantError",
    "handle_request",
    "run_smoke",
    "serve_envelope_from_dict",
    "serve_jsonl",
    "serve_network",
]
