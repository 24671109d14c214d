"""Sharded serving: partition the claim stream itself.

TD-AC's central insight — partition the attribute space, solve blocks
independently, merge (PAPER.md §3) — applies to the *serving* layer as
much as to one pipeline run.  :class:`ShardRouter` runs N in-process
:class:`~repro.serving.service.TruthService` workers, each owning a
slice of the attribute space, and keeps one exact global view:

* **Routing** follows the patched multi-key-partitioning template: an
  attribute's *home* shard is a stable hash of its identifier, and an
  **exception list** overrides the hash for attributes whose block
  placement demands it — at every (re)assignment epoch, whole blocks of
  the current merged partition are placed together, and any block whose
  attributes straddle shards is sent to a deterministic **exception
  shard** (``exception_shard``, default 0).  Routing is sticky within
  an epoch, so one fact's claims always meet on the same shard and the
  shard's own one-truth conflict check fires before any ack.
* **Exact merged view.**  The router keeps a global applied-claim log
  (appended in ticket-resolution order) and an
  :class:`~repro.core.incremental.IncrementalTDAC` *merger* that folds
  the log's delta through the certified-exact delta path.  The merged
  :class:`MergedSnapshot` at watermark ``w`` is therefore bit-identical
  to one offline :meth:`TDAC.run <repro.core.tdac.TDAC.run>` over
  ``initial dataset + log[:w]`` — the same invariant the single-service
  stack pins, now over the union of every shard's admitted claims.
  Merging is lazy (``merge_every`` batches, or on ``snapshot()`` /
  ``drain`` / ``stop``), so the ingest hot path never pays for it.
* **Rebalancing with exact hand-off.**  When shard skew (max/mean
  applied claims) exceeds ``rebalance_threshold``,
  :meth:`ShardRouter.maybe_rebalance` drains every shard, cuts final
  checkpoints (the WAL/snapshot hand-off), re-partitions the attribute
  space block-by-block (greedy by claim count onto the least-loaded
  shard, recording every attribute placed off its hash home in the
  exception list) and rebuilds the workers from the merger's global
  dataset under a fresh store epoch.  The merged view is untouched —
  the applied log is the state, shard placement is only a performance
  choice.
* **Fault injection.**  :meth:`crash_shard` kills one worker the way a
  crash would (queue lost, WAL kept, no final checkpoint);
  :meth:`restore_shard` resurrects it via
  :meth:`TruthService.restore <repro.serving.service.TruthService.restore>`.
  Acked claims live in the global log *and* in the shard's committed
  WAL, so a crash between ack and restore loses nothing.

Cold shards are lazy: a shard whose slice is empty gets no service (and
no threads) until the first claim routes to it, at which point the
batch itself seeds the worker's initial corpus.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.algorithms.base import TruthDiscoveryAlgorithm, TruthDiscoveryResult
from repro.core.cache import PartitionCache
from repro.core.config import TDACConfig
from repro.core.incremental import IncrementalTDAC, extend_dataset
from repro.core.partition import Partition
from repro.core.schema import result_to_dict
from repro.data.dataset import Dataset
from repro.data.types import AttributeId, Claim, ObjectId, Value
from repro.observability import SpanTracer, activate, current_tracer
from repro.serving.config import ServiceConfig
from repro.serving.service import (
    IngestTicket,
    QueryAnswer,
    ServiceOverloadedError,
    ServiceStoppedError,
    TruthService,
)


def attribute_home(attribute: AttributeId, n_shards: int) -> int:
    """Stable hash home of an attribute (process-independent).

    ``zlib.crc32`` rather than ``hash()``: Python string hashing is
    salted per process, and routing must agree across restarts.
    """
    return zlib.crc32(str(attribute).encode("utf-8")) % n_shards


def _clone_base(base: TruthDiscoveryAlgorithm) -> TruthDiscoveryAlgorithm:
    """A fresh instance of ``base`` for one shard's private engine.

    Every worker thread refits concurrently, so sharing one algorithm
    object across shards would be a latent race; registered algorithms
    are cloned through the registry, unregistered ones through their
    (kwarg-free) constructor.
    """
    from repro.algorithms import create

    try:
        return create(base.name)
    except KeyError:
        return type(base)()


@dataclass(frozen=True)
class ShardInfo:
    """Per-shard metadata carried by a :class:`MergedSnapshot`."""

    index: int
    attributes: int
    applied_claims: int
    version: int
    watermark: int
    alive: bool


@dataclass(frozen=True)
class MergedSnapshot:
    """One exact global view over every shard's admitted claims.

    Field-compatible with :class:`~repro.serving.snapshot.TruthSnapshot`
    (``version`` / ``watermark`` / ``result`` / ``value()`` / ...) so
    the front-ends serve either interchangeably, plus a ``shards`` tuple
    describing the per-shard state the merge covered.  ``watermark``
    counts globally applied claims; bit-identity to the offline run at
    that watermark is the router's core invariant.
    """

    version: int
    watermark: int
    result: TruthDiscoveryResult
    partition: Partition
    silhouette_by_k: Mapping[int, float] = field(default_factory=dict)
    exact: bool = True
    pending_claims: int = 0
    dataset_fingerprint: str = ""
    config_fingerprint: str = ""
    shards: tuple[ShardInfo, ...] = ()

    @property
    def predictions(self):
        return self.result.predictions

    @property
    def source_trust(self):
        return self.result.source_trust

    def value(self, obj: ObjectId, attribute: AttributeId) -> Value | None:
        from repro.data.types import Fact

        return self.result.predictions.get(Fact(obj, attribute))

    def to_dict(self) -> dict:
        """``tdac-result/v1`` plus ``serving`` and ``shards`` metadata."""
        payload = result_to_dict(
            self.result,
            partition=self.partition,
            silhouette_by_k=self.silhouette_by_k,
        )
        payload["serving"] = {
            "version": self.version,
            "watermark": self.watermark,
            "exact": self.exact,
            "pending_claims": self.pending_claims,
            "dataset_fingerprint": self.dataset_fingerprint,
            "config_fingerprint": self.config_fingerprint,
        }
        payload["shards"] = [
            {
                "index": s.index,
                "attributes": s.attributes,
                "applied_claims": s.applied_claims,
                "version": s.version,
                "watermark": s.watermark,
                "alive": s.alive,
            }
            for s in self.shards
        ]
        return payload


class _RouterTicket:
    """One router-level admission: the fan-out of a batch over shards.

    Aggregates the per-shard :class:`IngestTicket`s a batch split into
    (plus claims a lazy shard activation applied synchronously) behind
    the same ``wait`` / ``done`` / ``add_done_callback`` surface, so the
    front-ends cannot tell a router from a single service.
    """

    def __init__(
        self,
        router: "ShardRouter",
        claims: Sequence[Claim],
        offset: int,
    ) -> None:
        self.claims = tuple(claims)
        self.offset = offset
        self._router = router
        self._tickets: list[IngestTicket] = []
        self._immediate = 0

    @property
    def done(self) -> bool:
        return all(t.done for t in self._tickets)

    def add_done_callback(self, fn) -> None:
        """Run ``fn()`` once every sub-ticket settles."""
        remaining = [len(self._tickets)]
        lock = threading.Lock()
        if not self._tickets:
            fn()
            return

        def one_settled() -> None:
            with lock:
                remaining[0] -= 1
                if remaining[0]:
                    return
            fn()

        for ticket in self._tickets:
            ticket.add_done_callback(one_settled)

    def wait(self, timeout: float | None = None):
        """Block until every shard applied its slice; return a global ack.

        The ack carries the router's global ``version`` / ``watermark``
        (the merged view's version, which may lag until the next merge
        refresh, and the count of globally applied claims, which covers
        this batch).  Any shard-level failure re-raises here.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for ticket in self._tickets:
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            ticket.wait(remaining)
        return self._router._global_ack()


@dataclass(frozen=True)
class _GlobalAck:
    """Version/watermark pair answering a router-level ingest."""

    version: int
    watermark: int


class _Shard:
    """One worker slot: a service (possibly not yet activated) + bookkeeping."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.service: TruthService | None = None
        self.lock = threading.Lock()  # guards lazy activation / crash
        self.down = False
        self.applied_claims = 0  # router-side, survives crash/rebuild
        self.store_dir: Path | None = None

    @property
    def alive(self) -> bool:
        return self.service is not None and not self.down


class ShardRouter:
    """Partition the claim stream across N in-process truth services.

    Parameters
    ----------
    base:
        Base algorithm; each shard (and the global merger) gets its own
        clone so worker threads never share mutable algorithm state.
    dataset:
        The initial corpus.  Attributes are assigned to shards block by
        block from the initial partition (exception rule applied), and
        each shard starts over its slice.
    n_shards:
        Worker count.  ``1`` degenerates to a single service behind the
        router surface.
    config:
        Shared :class:`~repro.core.config.TDACConfig` (fingerprint
        stamped on every snapshot, exactly as in the single service).
    service_config:
        :class:`~repro.serving.config.ServiceConfig` applied to every
        shard worker; its ``merge_every`` / ``rebalance_threshold``
        fields drive the router itself.
    partition_cache / tracer:
        Shared across every shard and the merger.
    store:
        Optional durability root.  Each shard's WAL + checkpoints live
        under ``<store>/epoch-<E>/shard-<I>``; a rebalance advances the
        epoch so hand-off state never interleaves with live state.
    exception_shard:
        Index of the deterministic shard that receives straddling
        blocks.
    snapshot_store_factory:
        Optional ``(epoch, shard) -> SnapshotStore`` hook letting a
        :class:`~repro.serving.tenancy.TenantRegistry` point shards at
        shared snapshot stores; ``None`` keeps per-shard defaults.
    """

    def __init__(
        self,
        base: TruthDiscoveryAlgorithm,
        dataset: Dataset,
        *,
        n_shards: int = 2,
        config: TDACConfig | None = None,
        service_config: ServiceConfig | None = None,
        partition_cache: PartitionCache | None = None,
        tracer: SpanTracer | None = None,
        store: str | Path | None = None,
        exception_shard: int = 0,
        snapshot_store_factory: Callable[[int, int], object] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if not 0 <= exception_shard < n_shards:
            raise ValueError(
                f"exception_shard must be in [0, {n_shards}), "
                f"got {exception_shard}"
            )
        self.service_config = (
            service_config if service_config is not None else ServiceConfig()
        )
        self.n_shards = n_shards
        self.exception_shard = exception_shard
        self.partition_cache = partition_cache
        self._base = base
        self._config = config if config is not None else TDACConfig()
        self._initial_dataset = dataset
        self._tracer = tracer
        self._store_root = None if store is None else Path(store)
        self._snapshot_store_factory = snapshot_store_factory
        self._epoch = 0
        self._shards = [_Shard(i) for i in range(n_shards)]
        #: Attribute -> shard for attributes placed *off* their hash
        #: home (the patched-partitioning exception list).  Everything
        #: else routes to attribute_home().
        self._exceptions: dict[AttributeId, int] = {}
        #: Sticky routing decisions for attributes first seen mid-epoch.
        self._assignment: dict[AttributeId, int] = {}
        self._lock = threading.Lock()  # admission / routing / sequences
        self._merge_lock = threading.Lock()  # merger + merged publication
        self._log_lock = threading.Lock()  # global applied log
        self._global_log: list[Claim] = []
        self._merged_len = 0  # prefix of the log the merger has folded
        self._merger = IncrementalTDAC(
            _clone_base(base),
            repartition_fraction=self.service_config.repartition_fraction,
            warm_window=self.service_config.warm_window,
            config=self._config,
            partition_cache=partition_cache,
        )
        self._merged: MergedSnapshot | None = None
        self._next_sequence = 0
        self._batches_since_merge = 0
        self._started = False
        self._closed = False
        self._stats = {
            "ingested_tickets": 0,
            "ingested_claims": 0,
            "rejected_claims": 0,
            "overloaded_tickets": 0,
            "merge_refreshes": 0,
            "rebalances": 0,
            "shard_crashes": 0,
            "shard_restores": 0,
            "lazy_activations": 0,
        }

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_of(self, attribute: AttributeId) -> int:
        """Where claims for ``attribute`` go this epoch (sticky)."""
        shard = self._exceptions.get(attribute)
        if shard is not None:
            return shard
        shard = self._assignment.get(attribute)
        if shard is not None:
            return shard
        return attribute_home(attribute, self.n_shards)

    @property
    def exceptions(self) -> dict[AttributeId, int]:
        """Copy of the current exception list (attr -> overriding shard)."""
        with self._lock:
            return dict(self._exceptions)

    def _assign_blocks(
        self, partition: Partition, balance: bool
    ) -> tuple[dict[AttributeId, int], dict[AttributeId, int]]:
        """Place whole blocks; return (assignment, exception list).

        Default rule (``balance=False``): a block whose attributes all
        hash to one home shard lives there; a block that *straddles*
        homes goes to the deterministic exception shard.  Balance rule
        (rebalance path): blocks go greedily, heaviest first by claim
        count, onto the least-loaded shard.  Either way the exception
        list records exactly the attributes placed off their hash home.
        """
        counts = self._claim_counts_by_attribute()
        assignment: dict[AttributeId, int] = {}
        if balance:
            loads = [0] * self.n_shards
            blocks = sorted(
                partition.blocks,
                key=lambda block: (-sum(counts.get(a, 0) for a in block),
                                   str(block[0]) if block else ""),
            )
            for block in blocks:
                shard = min(range(self.n_shards), key=lambda i: loads[i])
                loads[shard] += sum(counts.get(a, 0) for a in block)
                for attribute in block:
                    assignment[attribute] = shard
        else:
            for block in partition.blocks:
                homes = {attribute_home(a, self.n_shards) for a in block}
                shard = homes.pop() if len(homes) == 1 else self.exception_shard
                for attribute in block:
                    assignment[attribute] = shard
        exceptions = {
            attribute: shard
            for attribute, shard in assignment.items()
            if shard != attribute_home(attribute, self.n_shards)
        }
        return assignment, exceptions

    def _claim_counts_by_attribute(self) -> dict[AttributeId, int]:
        counts: dict[AttributeId, int] = {}
        for claim in self._merger.dataset.iter_claims():
            counts[claim.attribute] = counts.get(claim.attribute, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def config(self) -> TDACConfig:
        return self._config

    def start(self) -> MergedSnapshot:
        """Fit the merger, place the attribute space, start the workers."""
        with self._lock:
            if self._started:
                raise RuntimeError("router already started")
            if self._closed:
                raise ServiceStoppedError("router was stopped")
            self._started = True
        with activate(self._tracer):
            with current_tracer().span(
                "shard.start", shards=self.n_shards
            ):
                outcome = self._merger.fit(self._initial_dataset)
        assignment, exceptions = self._assign_blocks(
            outcome.partition, balance=False
        )
        with self._lock:
            self._assignment = assignment
            self._exceptions = exceptions
        self._build_shards(self._initial_dataset)
        merged = MergedSnapshot(
            version=1,
            watermark=0,
            result=outcome.result,
            partition=outcome.partition,
            silhouette_by_k=dict(outcome.silhouette_by_k),
            exact=True,
            pending_claims=0,
            dataset_fingerprint=self._initial_dataset.fingerprint,
            config_fingerprint=self._config.fingerprint(),
            shards=self._shard_infos(),
        )
        with self._merge_lock:
            self._merged = merged
        return merged

    def _shard_store(self, index: int):
        if self._store_root is None:
            return None
        directory = (
            self._store_root / f"epoch-{self._epoch:03d}" / f"shard-{index:02d}"
        )
        if self._snapshot_store_factory is None:
            return directory
        from repro.store import TruthStore

        return TruthStore(
            directory,
            snapshots=self._snapshot_store_factory(self._epoch, index),
        )

    def _make_service(self, index: int, dataset: Dataset) -> TruthService:
        service = TruthService(
            _clone_base(self._base),
            dataset,
            config=self._config,
            service_config=self.service_config,
            partition_cache=self.partition_cache,
            tracer=self._tracer,
            store=self._shard_store(index),
        )
        service.start()
        return service

    def _build_shards(self, dataset: Dataset) -> None:
        """(Re)create every worker over its slice of ``dataset``."""
        slices: dict[int, list[AttributeId]] = {}
        for attribute in dataset.attributes:
            slices.setdefault(self.shard_of(attribute), []).append(attribute)
        for shard in self._shards:
            attrs = slices.get(shard.index, [])
            shard.store_dir = (
                None
                if self._store_root is None
                else self._store_root
                / f"epoch-{self._epoch:03d}"
                / f"shard-{shard.index:02d}"
            )
            if not attrs:
                shard.service = None  # lazy: activated by its first batch
                shard.down = False
                continue
            shard.service = self._make_service(
                shard.index, dataset.restrict_attributes(attrs)
            )
            shard.down = False
            self._gauge(f"shard.{shard.index}.attributes", len(attrs))

    def stop(
        self, timeout: float | None = None, checkpoint: bool = True
    ) -> None:
        """Drain, fold the log into the merged view, stop every worker."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.drain(timeout)
        with self._merge_lock:
            self._refresh_merged_locked()
        for shard in self._shards:
            if shard.service is not None and not shard.down:
                shard.service.stop(timeout, checkpoint=checkpoint)

    def __enter__(self) -> "ShardRouter":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def ingest(
        self,
        claims: Iterable[Claim],
        wait: bool = False,
        timeout: float | None = None,
    ) -> _RouterTicket:
        """Split a batch across its owning shards and admit each slice.

        At-least-once semantics match the single service: if one shard
        rejects (overloaded / down) after another already admitted, the
        router raises and the client's retry re-asserts the admitted
        slice as duplicate no-ops.
        """
        batch = tuple(claims)
        if not batch:
            raise ValueError("ingest requires at least one claim")
        with self._lock:
            if self._closed or not self._started:
                raise ServiceStoppedError(
                    "router is not running; call start() first"
                )
            by_shard: dict[int, list[Claim]] = {}
            for claim in batch:
                shard = self.shard_of(claim.attribute)
                # Sticky: the first routing decision for a new attribute
                # holds until the next rebalance epoch.
                self._assignment.setdefault(claim.attribute, shard)
                by_shard.setdefault(shard, []).append(claim)
            offset = self._next_sequence
            self._next_sequence += len(batch)
            self._stats["ingested_tickets"] += 1
            self._stats["ingested_claims"] += len(batch)
        ticket = _RouterTicket(self, batch, offset)
        try:
            for index, slice_claims in sorted(by_shard.items()):
                sub = self._ingest_shard(index, slice_claims)
                if sub is not None:
                    ticket._tickets.append(sub)
        except ServiceOverloadedError:
            with self._lock:
                self._stats["overloaded_tickets"] += 1
                self._stats["rejected_claims"] += len(batch)
            self._count("shard.overloaded")
            raise
        self._count("shard.ingest", len(batch))
        if wait:
            ticket.wait(timeout)
        return ticket

    def _ingest_shard(
        self, index: int, claims: list[Claim]
    ) -> IngestTicket | None:
        """Admit one slice on its shard; None if applied synchronously."""
        shard = self._shards[index]
        with shard.lock:
            if shard.down:
                raise ServiceOverloadedError(
                    0, self.service_config.queue_capacity,
                    self._last_batch_seconds,
                )
            if shard.service is None:
                # Cold shard: the first batch seeds the worker's corpus.
                self._activate_shard(shard, claims)
                return None
            service = shard.service
        ticket = service.ingest(claims)
        ticket.add_done_callback(
            lambda: self._on_settled(shard, ticket)
        )
        return ticket

    def _activate_shard(self, shard: _Shard, claims: list[Claim]) -> None:
        """Spin up a lazy shard with ``claims`` as its initial corpus.

        The claims are part of the worker's baseline checkpoint (cut by
        ``start()``), so they are durable before this returns — the same
        ack-after-durability contract the WAL admit path gives.
        """
        seed = Dataset((), (), (), {}, name="shard-seed").extended(claims)
        shard.service = self._make_service(shard.index, seed)
        shard.down = False
        with self._lock:
            self._stats["lazy_activations"] += 1
        self._count("shard.lazy_activation")
        self._append_global(shard, claims)

    def _on_settled(self, shard: _Shard, ticket: IngestTicket) -> None:
        """Ticket callback: fold successful batches into the global log."""
        if ticket._error is not None:
            return
        self._append_global(shard, list(ticket.claims))

    def _append_global(self, shard: _Shard, claims: list[Claim]) -> None:
        with self._log_lock:
            self._global_log.extend(claims)
            shard.applied_claims += len(claims)
            self._batches_since_merge += 1
            due = (
                self.service_config.merge_every > 0
                and self._batches_since_merge
                >= self.service_config.merge_every
            )
        self._gauge(f"shard.{shard.index}.applied_claims",
                    shard.applied_claims)
        if due:
            # Cost lands on the settling shard's batcher thread — the
            # explicit trade of periodic merging; merge_every=0 keeps
            # the hot path entirely merge-free.
            self.refresh_merged()

    # ------------------------------------------------------------------
    # Merged view
    # ------------------------------------------------------------------

    def refresh_merged(self) -> MergedSnapshot:
        """Fold the applied log's unseen suffix into the merged view.

        Exact by the delta-path theorem: the merger's state after
        ``update(log[a:b])`` equals a cold ``TDAC.run`` over
        ``initial + log[:b]``, so every published merged snapshot is
        bit-identical to its offline reference.
        """
        with self._merge_lock:
            return self._refresh_merged_locked()

    def _refresh_merged_locked(self) -> MergedSnapshot:
        merged = self._merged
        if merged is None:
            raise ServiceStoppedError(
                "router is not running; call start() first"
            )
        with self._log_lock:
            delta = list(self._global_log[self._merged_len:])
            self._batches_since_merge = 0
        if not delta:
            return merged
        with activate(self._tracer):
            with current_tracer().span("shard.merge", claims=len(delta)):
                outcome = self._merger.update(delta)
        self._merged_len += len(delta)
        with self._lock:
            self._stats["merge_refreshes"] += 1
        merged = MergedSnapshot(
            version=merged.version + 1,
            watermark=self._merged_len,
            result=outcome.result,
            partition=outcome.partition,
            silhouette_by_k=dict(outcome.silhouette_by_k),
            exact=True,
            pending_claims=self._pending_claims(),
            dataset_fingerprint=self._merger.dataset.fingerprint,
            config_fingerprint=self._config.fingerprint(),
            shards=self._shard_infos(),
        )
        self._merged = merged
        self._gauge("shard.merged.watermark", merged.watermark)
        return merged

    def snapshot(self) -> MergedSnapshot:
        """The exact global view (refreshes the merge lazily)."""
        return self.refresh_merged()

    def query(self, obj: ObjectId, attribute: AttributeId) -> QueryAnswer:
        """Point read from the owning shard's local snapshot (wait-free).

        The owning shard's view of its own attributes is the freshest
        one in the system; a down shard falls back to the (possibly
        staler, still exact) merged view.
        """
        shard = self._shards[self.shard_of(attribute)]
        service = shard.service
        if service is not None and not shard.down:
            return service.query(obj, attribute)
        with self._merge_lock:
            merged = self._merged
        if merged is None:
            raise ServiceStoppedError(
                "router is not running; call start() first"
            )
        value = merged.value(obj, attribute)
        return QueryAnswer(
            object=obj,
            attribute=attribute,
            value=value,
            found=value is not None,
            version=merged.version,
            watermark=merged.watermark,
            exact=merged.exact,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def claim_log(self) -> tuple[Claim, ...]:
        """Every globally applied claim, in resolution order."""
        with self._log_lock:
            return tuple(self._global_log)

    def replay_dataset(self, watermark: int | None = None) -> Dataset:
        """The offline dataset the merged view at ``watermark`` must match."""
        log = self.claim_log
        if watermark is None:
            watermark = len(log)
        if not 0 <= watermark <= len(log):
            raise ValueError(
                f"watermark {watermark} outside applied range "
                f"[0, {len(log)}]"
            )
        if watermark == 0:
            return self._initial_dataset
        return extend_dataset(self._initial_dataset, list(log[:watermark]))

    def _pending_claims(self) -> int:
        total = 0
        for shard in self._shards:
            service = shard.service
            if service is not None and not shard.down:
                with service._cond:
                    total += service._pending_claims + service._in_flight
        return total

    def _shard_infos(self) -> tuple[ShardInfo, ...]:
        infos = []
        with self._lock:
            owned: dict[int, int] = {}
            for attribute, shard_index in self._assignment.items():
                owned[shard_index] = owned.get(shard_index, 0) + 1
        for shard in self._shards:
            service = shard.service
            snapshot = None
            if service is not None and not shard.down:
                snapshot = service._snapshot
            infos.append(
                ShardInfo(
                    index=shard.index,
                    attributes=owned.get(shard.index, 0),
                    applied_claims=shard.applied_claims,
                    version=snapshot.version if snapshot else 0,
                    watermark=snapshot.watermark if snapshot else 0,
                    alive=shard.alive,
                )
            )
        return tuple(infos)

    @property
    def _last_batch_seconds(self) -> float:
        worst = 0.05
        for shard in self._shards:
            service = shard.service
            if service is not None and not shard.down:
                worst = max(worst, service._last_batch_seconds)
        return worst

    @property
    def stats(self) -> dict:
        """Router counters, merged progress and per-shard sub-stats."""
        with self._lock:
            out = dict(self._stats)
        with self._merge_lock:
            merged = self._merged
        with self._log_lock:
            out["applied_claims"] = len(self._global_log)
            out["merged_lag_claims"] = len(self._global_log) - self._merged_len
        out["version"] = merged.version if merged else 0
        out["watermark"] = merged.watermark if merged else 0
        out["pending_claims"] = self._pending_claims()
        out["n_shards"] = self.n_shards
        out["epoch"] = self._epoch
        out["exceptions"] = len(self._exceptions)
        out["skew"] = self.skew()
        out["shards"] = {
            str(shard.index): (
                shard.service.stats
                if shard.service is not None and not shard.down
                else {"alive": False,
                      "applied_claims": shard.applied_claims}
            )
            for shard in self._shards
        }
        return out

    def skew(self) -> float:
        """Max/mean applied-claim load across shards (1.0 = balanced)."""
        loads = [shard.applied_claims for shard in self._shards]
        mean = sum(loads) / len(loads)
        if mean <= 0:
            return 1.0
        return max(loads) / mean

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every shard applied everything it admitted."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for shard in self._shards:
            service = shard.service
            if service is None or shard.down:
                continue
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                return False
            if not service.drain(remaining):
                return False
        return True

    def _global_ack(self) -> _GlobalAck:
        with self._merge_lock:
            version = self._merged.version if self._merged else 0
        with self._log_lock:
            watermark = len(self._global_log)
        return _GlobalAck(version=version, watermark=watermark)

    # ------------------------------------------------------------------
    # Rebalancing (exact hand-off)
    # ------------------------------------------------------------------

    def maybe_rebalance(self) -> bool:
        """Rebalance iff the skew threshold is set and exceeded."""
        threshold = self.service_config.rebalance_threshold
        if threshold <= 0 or self.skew() <= threshold:
            return False
        self.rebalance()
        return True

    def rebalance(self) -> None:
        """Re-partition the attribute space with exact hand-off.

        Drain → merge (the global log *is* the state) → final per-shard
        checkpoints → re-place whole blocks of the merged partition
        greedily by claim count → rebuild every worker over its new
        slice of the merger's dataset under a fresh store epoch.  The
        merged view is bitwise unchanged across the hand-off; only
        placement (and therefore future shard-local work) moves.
        """
        self.drain()
        with self._merge_lock:
            merged = self._refresh_merged_locked()
        with activate(self._tracer):
            with current_tracer().span("shard.rebalance"):
                for shard in self._shards:
                    if shard.service is not None and not shard.down:
                        shard.service.stop(checkpoint=True)
                    shard.service = None
                    shard.down = False
                assignment, exceptions = self._assign_blocks(
                    merged.partition, balance=True
                )
                with self._lock:
                    # Attributes outside the merged partition (possible
                    # only transiently) keep their sticky routing.
                    sticky = {
                        a: s
                        for a, s in self._assignment.items()
                        if a not in assignment
                    }
                    self._assignment = {**sticky, **assignment}
                    self._exceptions = exceptions
                    self._epoch += 1
                    self._stats["rebalances"] += 1
                self._build_shards(self._merger.dataset)
        self._count("shard.rebalance")
        self._gauge("shard.epoch", self._epoch)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def crash_shard(self, index: int) -> None:
        """Kill one worker the way a crash would.

        Its admission queue is dropped (unapplied tickets fail with a
        retryable overload, exactly what a vanished worker looks like to
        a client), the worker thread exits after the in-flight batch,
        and the store closes with **no** final checkpoint — the WAL is
        left exactly as a real crash would leave it.
        """
        shard = self._shards[index]
        with shard.lock:
            service = shard.service
            if service is None or shard.down:
                raise ValueError(f"shard {index} is not running")
            shard.down = True
        dropped: list[IngestTicket] = []
        with service._cond:
            service._closed = True
            while service._pending:
                ticket = service._pending.popleft()
                service._pending_claims -= len(ticket.claims)
                dropped.append(ticket)
            service._cond.notify_all()
        if service._thread is not None:
            service._thread.join()
        for ticket in dropped:
            ticket._fail(
                ServiceOverloadedError(
                    len(ticket.claims),
                    self.service_config.queue_capacity,
                    self._last_batch_seconds,
                )
            )
        if service.store is not None:
            service.store.close()
        with self._lock:
            self._stats["shard_crashes"] += 1
        self._count("shard.crash")
        self._gauge(f"shard.{index}.alive", 0)

    def restore_shard(self, index: int) -> None:
        """Resurrect a crashed worker from its WAL + checkpoints.

        :meth:`TruthService.restore` replays the committed tail (every
        acked claim) and re-applies uncommitted admits.  The global log
        already holds everything that was acked, so the merged view
        needs no reconciliation — restore re-establishes the *shard's*
        local state, after which routing to it resumes.
        """
        shard = self._shards[index]
        with shard.lock:
            if not shard.down:
                raise ValueError(f"shard {index} is not down")
            if shard.store_dir is None:
                raise ValueError(
                    f"shard {index} has no store; cannot restore"
                )
            store = shard.store_dir
            if self._snapshot_store_factory is not None:
                from repro.store import TruthStore

                store = TruthStore(
                    store,
                    snapshots=self._snapshot_store_factory(
                        self._epoch, index
                    ),
                )
            shard.service = TruthService.restore(
                store,
                _clone_base(self._base),
                config=self._config,
                service_config=self.service_config,
                partition_cache=self.partition_cache,
                tracer=self._tracer,
            )
            shard.down = False
        with self._lock:
            self._stats["shard_restores"] += 1
        self._count("shard.restore")
        self._gauge(f"shard.{index}.alive", 1)

    # ------------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        if self._tracer is not None:
            self._tracer.count(name, n)

    def _gauge(self, name: str, value: float) -> None:
        if self._tracer is not None:
            self._tracer.gauge(name, value)
