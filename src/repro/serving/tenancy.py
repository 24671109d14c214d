"""Multi-tenant serving: many tenants, shared engines, isolated accounting.

A :class:`TenantRegistry` multiplexes named tenants over shared serving
engines.  The unit of sharing is the **engine key**
``(dataset fingerprint, config fingerprint)`` — the same pair that
content-addresses checkpoints — so two
tenants registered over the same corpus and config get handles onto the
*same* :class:`~repro.serving.service.TruthService` (same batcher, same
WAL, same exact snapshots), while tenants with different keys get
disjoint engines under disjoint store namespaces.

What is shared and what is isolated:

* **Shared across every engine**: one
  :class:`~repro.observability.SpanTracer` and one
  :class:`~repro.serving.config.ServiceConfig` — every engine runs
  under the registry's config, and a
  :class:`~repro.serving.net.TruthServer` serving the registry reads
  its network limits from the same value.
* **Isolated per engine**: the store namespace.  Each engine's WAL and
  checkpoints live under ``<store_root>/tenants/<owner>/`` (the first
  registered tenant on the key names the namespace), so one tenant's
  recovery never scans another key's log.  Registering the owner again
  over a non-empty namespace — in a later process, say — resumes it
  through :meth:`TruthService.restore`.
* **Isolated per tenant**: admission quotas and counters.  A
  :class:`TenantHandle` enforces a pending-claims quota *before*
  delegating to the shared engine — a noisy tenant exhausts its quota,
  not the neighbours' queue — and stamps ``tenant.<name>.*`` counters
  plus the ``tenant`` field of the ``tdac-serve/v1`` envelope.

Handles duck-type :class:`~repro.serving.service.TruthService`, and the
registry itself duck-types one too (delegating to a default tenant and
resolving the rest via :meth:`TenantRegistry.resolve_tenant`), so the
existing front-ends serve a whole registry unchanged.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Iterable, Mapping

from repro.core.config import TDACConfig
from repro.data.dataset import Dataset
from repro.data.types import AttributeId, Claim, ObjectId
from repro.observability import SpanTracer
from repro.serving.config import ServiceConfig
from repro.serving.service import (
    QueryAnswer,
    ServiceOverloadedError,
    ServiceStoppedError,
    TruthService,
)
from repro.serving.snapshot import TruthSnapshot
from repro.store import TruthStore


class UnknownTenantError(KeyError):
    """The request named a tenant this registry never registered."""


class TenantQuotaError(ServiceOverloadedError):
    """The tenant's own admission quota is exhausted (not the engine's).

    Subclasses :class:`ServiceOverloadedError` so every existing
    overload path (front-end rejections, client retry loops) handles it
    unchanged; ``tenant`` says whose quota tripped.
    """

    def __init__(
        self,
        tenant: str,
        pending_claims: int,
        quota: int,
        retry_after_seconds: float,
    ) -> None:
        super().__init__(pending_claims, quota, retry_after_seconds)
        self.tenant = tenant


class TenantHandle:
    """One tenant's view of a (possibly shared) serving engine.

    Same read/write surface as :class:`TruthService`; writes are
    metered against the tenant's quota and counted under the tenant's
    name before delegating to the engine.  Engine lifecycle belongs to
    the registry — handles have no ``start``/``stop``.
    """

    def __init__(
        self,
        name: str,
        engine: TruthService,
        registry: "TenantRegistry",
        quota: int | None,
    ) -> None:
        self.name = name
        self.engine = engine
        self.quota = quota
        self._registry = registry
        self._lock = threading.Lock()
        self._pending_claims = 0
        self._counters = {
            "ingested_tickets": 0,
            "ingested_claims": 0,
            "applied_claims": 0,
            "quota_rejections": 0,
            "overloaded_tickets": 0,
            "queries": 0,
        }

    # -- serving surface -------------------------------------------------

    @property
    def wire_context(self) -> dict:
        """Routing context the front-ends stamp onto every response."""
        return {"tenant": self.name}

    @property
    def service_config(self) -> ServiceConfig:
        return self.engine.service_config

    @property
    def config(self) -> TDACConfig:
        return self.engine.config

    @property
    def _tracer(self) -> SpanTracer | None:
        return self.engine._tracer

    @property
    def _last_batch_seconds(self) -> float:
        return self.engine._last_batch_seconds

    def ingest(
        self,
        claims: Iterable[Claim],
        wait: bool = False,
        timeout: float | None = None,
    ):
        """Quota-check, count, then delegate to the shared engine.

        The quota bounds this tenant's *pending* (admitted, unapplied)
        claims; at the limit the batch is rejected with
        :class:`TenantQuotaError` without ever touching the engine
        queue, so one tenant cannot starve the others' admissions.
        """
        batch = tuple(claims)
        if not batch:
            raise ValueError("ingest requires at least one claim")
        with self._lock:
            if self.quota is not None and (
                self._pending_claims + len(batch) > self.quota
            ):
                self._counters["quota_rejections"] += 1
                self._count("quota_rejections")
                raise TenantQuotaError(
                    self.name,
                    self._pending_claims,
                    self.quota,
                    self.engine._last_batch_seconds,
                )
            self._pending_claims += len(batch)
        try:
            ticket = self.engine.ingest(batch)
        except ServiceOverloadedError:
            with self._lock:
                self._pending_claims -= len(batch)
                self._counters["overloaded_tickets"] += 1
            self._count("overloaded")
            raise
        with self._lock:
            self._counters["ingested_tickets"] += 1
            self._counters["ingested_claims"] += len(batch)
        self._count("ingest")
        self._count("ingest.claims", len(batch))

        def settled() -> None:
            applied = ticket._error is None
            with self._lock:
                self._pending_claims -= len(batch)
                if applied:
                    self._counters["applied_claims"] += len(batch)
            if applied:
                self._count("applied.claims", len(batch))

        ticket.add_done_callback(settled)
        if wait:
            ticket.wait(timeout)
        return ticket

    def query(self, obj: ObjectId, attribute: AttributeId) -> QueryAnswer:
        with self._lock:
            self._counters["queries"] += 1
        self._count("query")
        return self.engine.query(obj, attribute)

    def snapshot(self) -> TruthSnapshot:
        return self.engine.snapshot()

    def replay_dataset(self, watermark: int | None = None) -> Dataset:
        return self.engine.replay_dataset(watermark)

    def drain(self, timeout: float | None = None) -> bool:
        return self.engine.drain(timeout)

    @property
    def claim_log(self) -> tuple[Claim, ...]:
        return self.engine.claim_log

    @property
    def stats(self) -> dict:
        """Tenant accounting first, shared-engine stats nested under it."""
        with self._lock:
            out = dict(self._counters)
            out["pending_claims"] = self._pending_claims
        out["tenant"] = self.name
        out["quota"] = self.quota
        out["engine"] = self.engine.stats
        return out

    # -- internals -------------------------------------------------------

    def _count(self, suffix: str, n: int = 1) -> None:
        tracer = self.engine._tracer
        if tracer is not None:
            tracer.count(f"tenant.{self.name}.{suffix}", n)


class TenantRegistry:
    """Named tenants multiplexed over fingerprint-keyed shared engines.

    Parameters
    ----------
    store_root:
        Optional durability root; engine ``E`` owned by tenant ``t``
        stores under ``<store_root>/tenants/<t>/`` and resumes from it
        when ``t`` registers again over a non-empty namespace.
        ``None`` keeps every engine in memory.
    tracer:
        Shared :class:`SpanTracer`; per-tenant counters land here under
        ``tenant.<name>.*``.
    service_config:
        The :class:`ServiceConfig` every engine runs under (default:
        ``ServiceConfig()``).

    The registry also duck-types the single-service surface (delegating
    to the default tenant — the first one registered) so ``repro serve``
    and :class:`~repro.serving.net.TruthServer` can serve it directly;
    requests carrying a ``tenant`` field are routed through
    :meth:`resolve_tenant` by the front-ends.
    """

    def __init__(
        self,
        *,
        store_root: str | Path | None = None,
        tracer: SpanTracer | None = None,
        service_config: ServiceConfig | None = None,
    ) -> None:
        self.store_root = None if store_root is None else Path(store_root)
        self.tracer = tracer
        self.service_config = (
            service_config if service_config is not None else ServiceConfig()
        )
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantHandle] = {}
        self._engines: dict[tuple[str, str], TruthService] = {}
        self._engine_owner: dict[tuple[str, str], str] = {}
        self._default: str | None = None
        self._closed = False

    # -- registration ----------------------------------------------------

    def register(
        self,
        name: str,
        base,
        dataset: Dataset,
        *,
        config: TDACConfig | None = None,
        quota: int | None = None,
    ) -> TenantHandle:
        """Admit a tenant; reuse the engine when its key already runs.

        The engine key is ``(dataset.fingerprint, config.fingerprint())``
        — registering a second tenant over an already-served corpus and
        config returns a fresh handle onto the *same* running service
        (its claims and the first tenant's interleave into one exact
        view).  A genuinely new key starts a new engine under the
        registering tenant's store namespace, or resumes that namespace
        when it already holds durable state; a namespace checkpointed
        under another config raises :class:`~repro.store.StoreError`.
        """
        config = config if config is not None else TDACConfig()
        key = (dataset.fingerprint, config.fingerprint())
        with self._lock:
            if self._closed:
                raise ServiceStoppedError("registry was stopped")
            if name in self._tenants:
                raise ValueError(f"tenant {name!r} is already registered")
            engine = self._engines.get(key)
        if engine is None:
            engine = self._open_engine(name, base, dataset, config)
            with self._lock:
                self._engines[key] = engine
                self._engine_owner[key] = name
        handle = TenantHandle(name, engine, self, quota)
        with self._lock:
            self._tenants[name] = handle
            if self._default is None:
                self._default = name
        if self.tracer is not None:
            self.tracer.count("tenant.registered")
        return handle

    def _open_engine(
        self,
        owner: str,
        base,
        dataset: Dataset,
        config: TDACConfig,
    ) -> TruthService:
        """Start the key's engine, or resume ``owner``'s non-empty namespace."""
        options = dict(
            config=config,
            service_config=self.service_config,
            tracer=self.tracer,
        )
        store = None
        if self.store_root is not None:
            store = TruthStore(self.store_root / "tenants" / owner)
        if store is None or store.is_empty():
            engine = TruthService(base, dataset, store=store, **options)
            engine.start()
            return engine
        # ``restore`` parses the newest checkpoint once, refuses one cut
        # under another config, and leaves nothing open when it fails.
        return TruthService.restore(store, base, **options)

    # -- lookup ----------------------------------------------------------

    def resolve_tenant(self, name: str | None) -> TenantHandle:
        """Front-end dispatch: a request's ``tenant`` field to its handle.

        ``None`` (an untagged request) resolves to the default tenant;
        an unregistered name raises :class:`UnknownTenantError`.
        """
        with self._lock:
            if name is None:
                name = self._default
            if name is None:
                raise UnknownTenantError("registry has no tenants")
            handle = self._tenants.get(name)
        if handle is None:
            raise UnknownTenantError(
                f"unknown tenant {name!r}; registered: "
                f"{sorted(self._tenants)}"
            )
        return handle

    @property
    def tenants(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._tenants))

    @property
    def engines(self) -> Mapping[tuple[str, str], TruthService]:
        with self._lock:
            return dict(self._engines)

    # -- single-service duck-type (delegates to the default tenant) -----

    def _default_handle(self) -> TenantHandle:
        return self.resolve_tenant(None)

    @property
    def wire_context(self) -> dict:
        return self._default_handle().wire_context

    def ingest(self, claims, wait: bool = False, timeout: float | None = None):
        return self._default_handle().ingest(claims, wait=wait, timeout=timeout)

    def query(self, obj, attribute):
        return self._default_handle().query(obj, attribute)

    def snapshot(self):
        return self._default_handle().snapshot()

    @property
    def _tracer(self) -> SpanTracer | None:
        return self.tracer

    @property
    def _last_batch_seconds(self) -> float:
        worst = 0.05
        with self._lock:
            engines = list(self._engines.values())
        for engine in engines:
            worst = max(worst, engine._last_batch_seconds)
        return worst

    @property
    def stats(self) -> dict:
        """Per-tenant accounting plus one entry per distinct engine."""
        with self._lock:
            tenants = dict(self._tenants)
            engines = dict(self._engines)
            owners = dict(self._engine_owner)
        return {
            "tenants": {name: h.stats for name, h in sorted(tenants.items())},
            "engines": {
                f"{owners[key]}:{key[0][:8]}:{key[1][:8]}": engine.stats
                for key, engine in engines.items()
            },
            "n_tenants": len(tenants),
            "n_engines": len(engines),
        }

    def drain(self, timeout: float | None = None) -> bool:
        with self._lock:
            engines = list(self._engines.values())
        for engine in engines:
            if not engine.drain(timeout):
                return False
        return True

    def stop(
        self, timeout: float | None = None, checkpoint: bool = True
    ) -> None:
        """Stop every engine (idempotent); the registry stops admitting."""
        with self._lock:
            self._closed = True
            engines = list(self._engines.values())
        for engine in engines:
            engine.stop(timeout, checkpoint=checkpoint)

    def __enter__(self) -> "TenantRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
