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
  staleness metadata, each (in the default full-refit mode)
  bit-identical to an offline ``TDAC.run`` over the claims at its
  watermark;
* :class:`~repro.core.cache.PartitionCache` (re-exported) — the shared
  LRU that lets repeated cold starts replay selected partitions;
* :mod:`~repro.serving.frontend` — the JSON-lines driver behind the
  ``repro serve`` CLI subcommand and its ``--smoke`` round trip;
* :mod:`~repro.serving.net` / :mod:`~repro.serving.client` — the
  asyncio TCP front-end behind ``repro serve --listen`` (persistent
  multiplexed connections, per-connection backpressure, graceful
  drain) and the matching reconnect/backoff/retry-after client;
* :class:`~repro.serving.config.ServiceConfig` — one frozen,
  fingerprintable config object holding every serving knob;
* :mod:`~repro.serving.schema` — the versioned ``tdac-serve/v1`` wire
  envelope every front-end response carries, with
  :class:`ServeEnvelope` / :func:`serve_envelope_from_dict` as the
  typed client-side view;
* :class:`~repro.serving.sharding.ShardRouter` — N service workers
  partitioning the attribute space (hash homes + an exception list for
  straddling blocks), an exact lazily-merged global view
  (:class:`MergedSnapshot`), skew-triggered rebalancing with exact
  WAL/checkpoint hand-off, and crash/restore fault injection;
* :class:`~repro.serving.tenancy.TenantRegistry` — named tenants
  multiplexed over fingerprint-keyed shared engines with per-tenant
  admission quotas, counters and WAL namespaces.

Durability is opt-in through :mod:`repro.store`: pass ``store=`` to
:class:`TruthService` and every admission is WAL-logged before its
ticket returns, checkpoints are cut periodically, and
:meth:`TruthService.restore` resumes the service bit-identically after
a crash.
"""

from repro.core.cache import PartitionCache
from repro.serving.client import (
    AsyncTruthClient,
    RetryPolicy,
    TruthClientError,
)
from repro.serving.config import ServiceConfig, service_config_from_dict
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
    REFIT_MODES,
    ServiceOverloadedError,
    ServiceStoppedError,
    TruthService,
)
from repro.serving.sharding import MergedSnapshot, ShardRouter
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
    "MergedSnapshot",
    "PartitionCache",
    "QueryAnswer",
    "REFIT_MODES",
    "RetryPolicy",
    "SERVE_SCHEMA",
    "ServeEnvelope",
    "ServiceConfig",
    "ServiceOverloadedError",
    "ServiceStoppedError",
    "ShardRouter",
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
    "service_config_from_dict",
]
