"""The long-lived, micro-batching truth-discovery service.

:class:`TruthService` turns the one-shot :class:`~repro.core.tdac.TDAC`
pipeline into a serving engine:

* **Admission / backpressure** — :meth:`TruthService.ingest` appends a
  batch of claims to a bounded queue and returns an
  :class:`IngestTicket`.  When the queue is full the claim batch is
  rejected with :class:`ServiceOverloadedError` carrying a
  ``retry_after_seconds`` hint, so overload degrades to explicit
  client-side retry instead of unbounded memory growth.
* **Micro-batching** — a single worker thread coalesces queued tickets
  (up to ``max_batch_size`` claims, waiting at most ``max_wait_ms`` for
  stragglers once the first ticket arrives) into one refit, amortising
  the per-refit cost across concurrent writers.
* **Versioned snapshots** — every applied batch publishes a fresh
  immutable :class:`~repro.serving.snapshot.TruthSnapshot` with a
  strictly monotone version and a claims-seen watermark; reads are a
  single reference load, wait-free and never blocked by writers.
* **Bit-identical refits** — every published snapshot is bit-identical
  to an offline :meth:`TDAC.run <repro.core.tdac.TDAC.run>` over the
  claims at its watermark.  :meth:`start` runs one full fit; every
  batch after it goes through the exact delta path of
  :meth:`IncrementalTDAC.update` — delta index compile, patched
  truth-vector matrix, certified partition reuse and touched-block-only
  base runs — so each snapshot is ``exact=True`` with a populated
  ``silhouette_by_k``.  A restore fits the checkpointed corpus plus the
  committed WAL tail once, since no snapshot between the two can be
  observed again after a crash.
* **Observability** — refits and batches run under the service's
  :class:`~repro.observability.SpanTracer` (``serve.start``,
  ``serve.batch``, ``serve.refit`` spans; ingest/batch/refit counters;
  queue-depth and batch-occupancy gauges), and worker failures inside a
  refit propagate to the affected tickets without taking the service
  down.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.algorithms.base import TruthDiscoveryAlgorithm
from repro.core.config import TDACConfig, config_from_dict
from repro.core.incremental import IncrementalTDAC, extend_dataset
from repro.data.dataset import Dataset
from repro.data.types import AttributeId, Claim, ObjectId, Value
from repro.observability import SpanTracer, activate, current_tracer
from repro.serving.config import ServiceConfig
from repro.serving.snapshot import TruthSnapshot
from repro.store import StoreError, TruthStore, WALCorruptionWarning, open_store

class ServiceOverloadedError(RuntimeError):
    """The admission queue is full; retry after ``retry_after_seconds``."""

    def __init__(
        self, pending_claims: int, capacity: int, retry_after_seconds: float
    ) -> None:
        super().__init__(
            f"admission queue full ({pending_claims}/{capacity} claims "
            f"pending); retry in {retry_after_seconds:.3f}s"
        )
        self.pending_claims = pending_claims
        self.capacity = capacity
        self.retry_after_seconds = retry_after_seconds


class ServiceStoppedError(RuntimeError):
    """The service is not accepting work (stopped, or never started)."""


class IngestTicket:
    """Handle for one admitted claim batch.

    ``offset`` is the admission sequence of the batch's first claim;
    the batch covers sequences ``[offset, offset + len(claims))``.  The
    snapshot that applied the batch therefore has
    ``watermark >= offset + len(claims)``.
    """

    __slots__ = (
        "claims",
        "offset",
        "_event",
        "_snapshot",
        "_error",
        "_callbacks",
        "_cb_lock",
    )

    def __init__(self, claims: Sequence[Claim], offset: int) -> None:
        self.claims: tuple[Claim, ...] = tuple(claims)
        self.offset = offset
        self._event = threading.Event()
        self._snapshot: TruthSnapshot | None = None
        self._error: BaseException | None = None
        self._callbacks: list = []
        self._cb_lock = threading.Lock()

    @property
    def done(self) -> bool:
        """Whether the batch has been applied (or failed)."""
        return self._event.is_set()

    def add_done_callback(self, fn) -> None:
        """Run ``fn()`` once the ticket settles (immediately if it has).

        Callbacks fire on whichever thread settles the ticket (the
        batcher thread, usually), so they must be cheap and must not
        block — the network front-end uses this to bridge tickets onto
        an event loop via ``call_soon_threadsafe`` instead of parking
        one executor thread per in-flight ingest.
        """
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn()

    def wait(self, timeout: float | None = None) -> TruthSnapshot:
        """Block until the batch is applied; return the covering snapshot.

        Raises the batch's failure (e.g. a one-truth conflict) if the
        refit rejected it, or :class:`TimeoutError` on ``timeout``.
        """
        if not self._event.wait(timeout):
            raise TimeoutError("ingest not applied within timeout")
        if self._error is not None:
            raise self._error
        assert self._snapshot is not None
        return self._snapshot

    def _settled(self) -> None:
        with self._cb_lock:
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn()

    def _resolve(self, snapshot: TruthSnapshot) -> None:
        self._snapshot = snapshot
        self._event.set()
        self._settled()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()
        self._settled()


@dataclass(frozen=True)
class QueryAnswer:
    """A point read plus the snapshot metadata that scopes its staleness."""

    object: ObjectId
    attribute: AttributeId
    value: Value | None
    found: bool
    version: int
    watermark: int
    exact: bool


class TruthService:
    """Thread-safe query/ingest front-end over the TD-AC engines.

    Parameters
    ----------
    base:
        Base truth discovery algorithm ``F`` for every refit.
    dataset:
        The initial corpus served at watermark 0.
    config:
        :class:`~repro.core.config.TDACConfig` shared by every refit
        (``None`` means defaults).  Its fingerprint stamps every
        snapshot.
    service_config:
        :class:`~repro.serving.config.ServiceConfig` holding every
        serving knob — micro-batch sizing, queue bounds, checkpoint
        cadence (``None`` means defaults).
    tracer:
        Optional :class:`~repro.observability.SpanTracer`; the worker
        thread activates it so ``serve.*`` spans, counters and gauges
        land in the same report as the pipeline stages they wrap.
    store:
        Optional durable backing: a :class:`~repro.store.TruthStore`
        or a directory path for one.  When set, every admitted batch is
        appended to the claim WAL *before* its ticket is returned, every
        applied batch writes a commit record before its ticket resolves,
        and checkpoints are cut on start (after a restore, by the
        batcher before its first batch), every ``snapshot_every``
        batches and on clean :meth:`stop`.  ``None`` (default) keeps the
        service purely in-memory.
    """

    def __init__(
        self,
        base: TruthDiscoveryAlgorithm,
        dataset: Dataset,
        *,
        config: TDACConfig | None = None,
        service_config: ServiceConfig | None = None,
        tracer: SpanTracer | None = None,
        store: TruthStore | str | Path | None = None,
    ) -> None:
        if service_config is None:
            service_config = ServiceConfig()
        self.service_config = service_config
        self.store = None if store is None else open_store(store)
        self._base = base
        self._config = config if config is not None else TDACConfig()
        self._initial_dataset = dataset
        self._incremental = IncrementalTDAC(base, config=self._config)
        self._tracer = tracer
        self._cond = threading.Condition()
        # One checkpoint at a time: the batcher's due checkpoint and a
        # caller's checkpoint() would write the same temp file.
        self._checkpoint_lock = threading.Lock()
        self._pending: deque[IngestTicket] = deque()
        self._pending_claims = 0
        self._in_flight = 0
        self._next_sequence = 0
        self._applied: list[Claim] = []
        self._snapshot: TruthSnapshot | None = None
        self._thread: threading.Thread | None = None
        self._started = False
        self._closed = False
        self._last_batch_seconds = 0.05
        # Restore continuity: a resumed service publishes versions and
        # watermarks continuing the checkpoint's numbering, not 1/0.
        self._version_base = 0
        self._watermark_base = 0
        self._resuming = False
        self._unsettled: Sequence[tuple[int, Sequence[Claim]]] = ()
        self._batches_since_checkpoint = 0
        self._stop_complete = False
        self._stats = {
            "ingested_tickets": 0,
            "ingested_claims": 0,
            "rejected_claims": 0,
            "overloaded_tickets": 0,
            "retry_after_last_seconds": 0.0,
            "batches": 0,
            "batch_errors": 0,
            "checkpoint_errors": 0,
            "applied_claims": 0,
            "refits_incremental": 0,
            "queue_depth_peak": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def config(self) -> TDACConfig:
        """The config every refit runs under."""
        return self._config

    def start(self) -> TruthSnapshot:
        """Run the initial fit, publish the first snapshot, start the batcher.

        A fresh service with a ``store`` refuses to start over a
        non-empty store directory: silently refitting from scratch would
        shadow the durable state.  Use :meth:`restore` to resume it.
        """
        if (
            self.store is not None
            and not self._resuming
            and not self.store.is_empty()
        ):
            raise StoreError(
                f"store at {self.store.root} already holds durable state; "
                "use TruthService.restore(...) to resume from it"
            )
        with self._cond:
            if self._started:
                raise RuntimeError("service already started")
            if self._closed:
                raise ServiceStoppedError("service was stopped")
            self._started = True
        dataset = self.replay_dataset()
        with activate(self._tracer):
            with current_tracer().span("serve.start"):
                outcome = self._incremental.fit(dataset)
        snapshot = TruthSnapshot(
            version=self._version_base + 1,
            watermark=self._watermark_base + len(self._applied),
            result=outcome.result,
            partition=outcome.partition,
            silhouette_by_k=dict(outcome.silhouette_by_k),
            exact=True,
            pending_claims=0,
            dataset_fingerprint=dataset.fingerprint,
            config_fingerprint=self._config.fingerprint(),
        )
        self._snapshot = snapshot
        if self._resuming:
            # Before the batcher starts, so its due checkpoint sees the
            # settled snapshot and dataset.
            self._settle_admits()
        elif self.store is not None:
            # Baseline checkpoint: the initial dataset is otherwise only
            # held in memory, and recovery needs it to replay from 0.
            try:
                self.checkpoint()
            except BaseException:
                self.stop(checkpoint=False)
                raise
        self._thread = threading.Thread(
            target=self._worker, name="tdac-truth-service", daemon=True
        )
        self._thread.start()
        return snapshot

    def stop(
        self, timeout: float | None = None, checkpoint: bool = True
    ) -> None:
        """Drain the queue, apply what remains, and stop the batcher.

        With a store attached, a clean stop cuts a final checkpoint (so
        the next :meth:`restore` replays nothing) and closes the WAL.
        ``checkpoint=False`` skips the final checkpoint — the store then
        looks exactly as it would after a crash at this point.

        ``stop`` is idempotent: repeated calls (e.g. the network
        front-end's drain followed by the CLI's ``finally``) return
        immediately once the first completed.  If the batcher is still
        applying a batch when ``timeout`` elapses, ``stop`` raises
        :class:`TimeoutError` and leaves the store open; call it again
        to finish.
        """
        with self._cond:
            if self._stop_complete:
                return
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise TimeoutError(
                    f"batcher still applying a batch after {timeout}s"
                )
        if self.store is not None:
            if checkpoint and self._snapshot is not None:
                self.checkpoint()
            self.store.close()
        self._stop_complete = True

    def checkpoint(self) -> Path | None:
        """Persist the current snapshot's stamp and dataset as a checkpoint.

        Returns the written path, or None without a store.  Meant to be
        called from the batcher between batches or while the service is
        quiescent, so the snapshot and the accumulated dataset agree.
        A call made while the batcher cuts a checkpoint waits for it.
        """
        if self.store is None:
            return None
        with self._checkpoint_lock:
            snapshot = self.snapshot()
            with self._cond:
                next_sequence = self._next_sequence
            with activate(self._tracer):
                path = self.store.record_snapshot(
                    snapshot,
                    self._incremental.dataset,
                    next_sequence=next_sequence,
                    base_algorithm=self._base.name,
                    config=self._config,
                )
            self._batches_since_checkpoint = 0
        return path

    def __enter__(self) -> "TruthService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @classmethod
    def restore(
        cls,
        store: TruthStore | str | Path,
        base: TruthDiscoveryAlgorithm | None = None,
        *,
        config: TDACConfig | None = None,
        service_config: ServiceConfig | None = None,
        tracer: SpanTracer | None = None,
    ) -> "TruthService":
        """Resume a service from a store directory after a crash or stop.

        Loads the latest valid checkpoint and extends its dataset with
        every committed WAL batch, in commit order.  One fit of that
        corpus publishes the last committed snapshot: its version is
        the checkpoint's plus the number of committed batches, and it is
        bit-identical to the one the crashed service published.
        Admitted-but-unsettled batches are then applied one at a time,
        each with its own commit or abort record (acknowledged
        admissions survive the crash; batches whose abort record made it
        to disk stay rejected).  It returns without writing a checkpoint:
        the batcher cuts one before it takes its first batch, so the
        next restore replays nothing, and the WAL already holds every
        acknowledged batch meanwhile.  If a step fails once the service
        is built, the service is stopped (which closes the store) before
        the error propagates.

        ``base`` and ``config`` default to what the checkpoint recorded
        (the base algorithm is resolved through the
        :mod:`repro.algorithms` registry by its stored name).  A
        ``config`` whose fingerprint differs from the checkpoint's is
        refused with :class:`StoreError`: the stored state was computed
        under another config.
        """
        from repro.data.io import dataset_from_dict

        store = open_store(store)
        with activate(tracer):
            recovery = store.recover()
        if recovery.checkpoint is None:
            raise StoreError(
                f"no valid checkpoint under {store.root}; nothing to "
                "restore (was the service ever started with this store?)"
            )
        meta = recovery.checkpoint["store"]
        stamp = recovery.checkpoint["stamp"]
        if base is None:
            from repro.algorithms import create

            base = create(meta["base_algorithm"])
        recorded = stamp["config_fingerprint"]
        if config is None:
            config = config_from_dict(meta["config"])
        elif config.fingerprint() != recorded:
            raise StoreError(
                f"{store.root} was checkpointed under config {recorded}, "
                f"not {config.fingerprint()}; refusing to serve another "
                "key's state"
            )
        dataset = dataset_from_dict(recovery.checkpoint["dataset"])
        # The service extends this dataset: its fingerprint check and
        # the extend by the WAL tail share one sort of the pieces.
        dataset.keep_pieces()
        if dataset.fingerprint != stamp["dataset_fingerprint"]:
            warnings.warn(
                f"restored dataset fingerprint {dataset.fingerprint} does "
                f"not match the checkpoint's {stamp['dataset_fingerprint']}",
                WALCorruptionWarning,
                stacklevel=2,
            )
        service = cls(
            base,
            dataset,
            config=config,
            service_config=service_config,
            tracer=tracer,
            store=store,
        )
        # start() fits checkpoint dataset + committed tail once,
        # publishes the last committed version and watermark, and
        # settles the unsettled admits before the batcher starts.
        service._applied = [c for b in recovery.batches for c in b.claims]
        service._version_base = stamp["version"] - 1 + len(recovery.batches)
        service._watermark_base = stamp["watermark"]
        service._next_sequence = recovery.next_sequence
        service._resuming = True
        service._unsettled = recovery.uncommitted
        try:
            service.start()
        except BaseException:
            # Leave no batcher running and no store open behind an error.
            service.stop(checkpoint=False)
            raise
        return service

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def ingest(
        self,
        claims: Iterable[Claim],
        wait: bool = False,
        timeout: float | None = None,
    ) -> IngestTicket:
        """Admit a batch of claims for asynchronous application.

        Returns an :class:`IngestTicket`; with ``wait=True`` blocks
        until the batch is applied and any refit failure re-raises here.
        Raises :class:`ServiceOverloadedError` when the queue is full
        and :class:`ServiceStoppedError` after :meth:`stop`.
        """
        batch = tuple(claims)
        if not batch:
            raise ValueError("ingest requires at least one claim")
        with self._cond:
            if self._closed or not self._started:
                raise ServiceStoppedError(
                    "service is not running; call start() first"
                )
            knobs = self.service_config
            backlog = self._pending_claims + self._in_flight
            if backlog + len(batch) > knobs.queue_capacity:
                batches_ahead = max(1, -(-backlog // knobs.max_batch_size))
                retry_after = self._last_batch_seconds * batches_ahead
                self._stats["rejected_claims"] += len(batch)
                self._stats["overloaded_tickets"] += 1
                self._stats["retry_after_last_seconds"] = retry_after
                self._trace_count("serve.ingest.rejected")
                self._trace_count("serve.overloaded")
                raise ServiceOverloadedError(
                    backlog, knobs.queue_capacity, retry_after
                )
            ticket = IngestTicket(batch, offset=self._next_sequence)
            if self.store is not None:
                # Durability point: the admit record is on disk before
                # the ticket (the admission ack) is ever visible.  A
                # failed append admits nothing.
                with activate(self._tracer):
                    self.store.append_admit(ticket.offset, batch)
            self._next_sequence += len(batch)
            self._pending.append(ticket)
            self._pending_claims += len(batch)
            depth = self._pending_claims + self._in_flight
            self._stats["ingested_tickets"] += 1
            self._stats["ingested_claims"] += len(batch)
            self._stats["queue_depth_peak"] = max(
                self._stats["queue_depth_peak"], depth
            )
            self._trace_count("serve.ingest")
            self._trace_count("serve.ingest.claims", len(batch))
            self._trace_gauge("serve.queue.depth", depth)
            self._cond.notify_all()
        if wait:
            ticket.wait(timeout)
        return ticket

    # ------------------------------------------------------------------
    # Reads (wait-free)
    # ------------------------------------------------------------------

    def snapshot(self) -> TruthSnapshot:
        """The latest published snapshot (never blocks on writers)."""
        snapshot = self._snapshot
        if snapshot is None:
            raise ServiceStoppedError(
                "service is not running; call start() first"
            )
        return snapshot

    def query(self, obj: ObjectId, attribute: AttributeId) -> QueryAnswer:
        """Point read of one fact against the current snapshot."""
        snapshot = self.snapshot()
        value = snapshot.value(obj, attribute)
        return QueryAnswer(
            object=obj,
            attribute=attribute,
            value=value,
            found=value is not None,
            version=snapshot.version,
            watermark=snapshot.watermark,
            exact=snapshot.exact,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stats(self) -> dict:
        """Serving counters plus engine and store bookkeeping.

        Counters, queue depth and the published snapshot's version and
        watermark are all read in one hold of the snapshot lock, so a
        mid-batch read cannot report e.g. ``queue_depth`` and
        ``overloaded_tickets`` from different instants.
        """
        with self._cond:
            out = dict(self._stats)
            out["pending_claims"] = self._pending_claims + self._in_flight
            snapshot = self._snapshot
        out["version"] = snapshot.version if snapshot else 0
        out["watermark"] = snapshot.watermark if snapshot else 0
        out["engine"] = self._incremental.stats
        if self.store is not None:
            out["store"] = self.store.stats
        return out

    @property
    def claim_log(self) -> tuple[Claim, ...]:
        """Every applied claim, in admission (watermark) order."""
        with self._cond:
            return tuple(self._applied)

    def replay_dataset(self, watermark: int | None = None) -> Dataset:
        """The offline dataset a snapshot at ``watermark`` must match.

        Rebuilds ``initial dataset + claim_log[:watermark]`` through the
        same accumulation routine the service itself uses, so
        ``TDAC(base, config=service.config).run(replay_dataset(w))`` is
        the reference an exact snapshot at watermark ``w`` is
        bit-identical to.
        """
        log = self.claim_log
        base = self._watermark_base
        if watermark is None:
            watermark = base + len(log)
        if not base <= watermark <= base + len(log):
            raise ValueError(
                f"watermark {watermark} outside applied range "
                f"[{base}, {base + len(log)}]"
            )
        if watermark == base:
            return self._initial_dataset
        return extend_dataset(
            self._initial_dataset, list(log[: watermark - base])
        )

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every admitted claim has been applied.

        Returns False if ``timeout`` elapsed with work still pending.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._pending or self._in_flight:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    # ------------------------------------------------------------------
    # Batcher internals
    # ------------------------------------------------------------------

    def _trace_count(self, name: str, n: int = 1) -> None:
        if self._tracer is not None:
            self._tracer.count(name, n)

    def _trace_gauge(self, name: str, value: float) -> None:
        if self._tracer is not None:
            self._tracer.gauge(name, value)

    def _settle_admits(self) -> None:
        """Apply a resume's unsettled admits, then mark a checkpoint due.

        Each admit is applied on its own and settled by a commit or an
        abort record.  The batcher cuts the due checkpoint before it
        takes its first batch, off the path of the first answer.
        """
        with activate(self._tracer):
            for offset, claims in self._unsettled:
                try:
                    settled = self._apply(list(claims))
                except Exception as exc:
                    self.store.append_abort([(offset, len(claims))], repr(exc))
                else:
                    self.store.append_commit(
                        settled.version,
                        settled.watermark,
                        [(offset, len(claims))],
                    )
        self._unsettled = ()
        self._batches_since_checkpoint = self.service_config.snapshot_every

    def _cadence_checkpoint(self) -> None:
        """Cut a checkpoint if one is due; a failure keeps the batcher up.

        The WAL still holds every acknowledged batch, so a failed
        checkpoint only lengthens the next replay: it is counted and
        retried ``snapshot_every`` batches later.
        """
        if (
            self.store is None
            or self._batches_since_checkpoint
            < self.service_config.snapshot_every
        ):
            return
        try:
            self.checkpoint()
        except Exception:
            self._batches_since_checkpoint = 0
            with self._cond:
                self._stats["checkpoint_errors"] += 1
            self._trace_count("serve.checkpoint.errors")

    def _take_batch(self) -> list[IngestTicket] | None:
        """Pop one micro-batch, or None when stopped and fully drained.

        Takes the first available ticket immediately, then lingers up to
        ``max_wait_ms`` coalescing further tickets while the batch stays
        under ``max_batch_size`` claims.
        """
        knobs = self.service_config
        with self._cond:
            while not self._pending:
                if self._closed:
                    return None
                self._cond.wait()
            tickets = [self._pending.popleft()]
            count = len(tickets[0].claims)
            deadline = time.monotonic() + knobs.max_wait_ms / 1000.0
            while count < knobs.max_batch_size:
                if self._pending:
                    head = self._pending[0]
                    if count + len(head.claims) > knobs.max_batch_size:
                        break
                    self._pending.popleft()
                    tickets.append(head)
                    count += len(head.claims)
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    break
                self._cond.wait(remaining)
            self._pending_claims -= count
            self._in_flight = count
            return tickets

    def _worker(self) -> None:
        with activate(self._tracer):
            tracer = current_tracer()
            while True:
                # Before the closed check in _take_batch, so a stop right
                # after a restore still leaves the due checkpoint.
                self._cadence_checkpoint()
                tickets = self._take_batch()
                if tickets is None:
                    break
                claims = [c for t in tickets for c in t.claims]
                started = time.perf_counter()
                error: BaseException | None = None
                snapshot: TruthSnapshot | None = None
                with tracer.span(
                    "serve.batch", claims=len(claims), tickets=len(tickets)
                ):
                    try:
                        snapshot = self._apply(claims)
                    except Exception as exc:  # keep serving on bad batches
                        error = exc
                elapsed = time.perf_counter() - started
                with self._cond:
                    self._in_flight = 0
                    self._last_batch_seconds = max(elapsed, 1e-4)
                    self._stats["batches"] += 1
                    if error is None:
                        self._stats["applied_claims"] += len(claims)
                    else:
                        self._stats["batch_errors"] += 1
                    self._cond.notify_all()
                tracer.count("serve.batch")
                tracer.count("serve.batch.claims", len(claims))
                tracer.gauge(
                    "serve.batch.occupancy",
                    len(claims) / self.service_config.max_batch_size,
                )
                applied = [(t.offset, len(t.claims)) for t in tickets]
                if error is not None:
                    tracer.count("serve.batch.errors")
                    if self.store is not None:
                        # Abort records settle the batch's admits so
                        # compaction is never blocked by a rejection.
                        self.store.append_abort(applied, repr(error))
                    for ticket in tickets:
                        ticket._fail(error)
                    continue
                assert snapshot is not None
                if self.store is not None:
                    # Commit before resolving: a ticket that returned
                    # from wait() is durably part of the replay history.
                    self.store.append_commit(
                        snapshot.version, snapshot.watermark, applied
                    )
                for ticket in tickets:
                    ticket._resolve(snapshot)
                self._batches_since_checkpoint += 1

    def _apply(self, claims: list[Claim]) -> TruthSnapshot:
        """Absorb ``claims`` on the delta path; publish the covering snapshot.

        :meth:`IncrementalTDAC.update` is bit-identical to the full
        pipeline by construction (see :mod:`repro.core.incremental`), so
        the snapshot is ``exact=True``.  It validates the batch before
        touching any state, so a conflicting batch is rejected without
        a published trace.
        """
        tracer = current_tracer()
        previous = self._snapshot
        assert previous is not None
        with tracer.span("serve.refit", claims=len(claims)):
            outcome = self._incremental.update(claims)
        tracer.count("serve.refit.incremental")
        self._stats["refits_incremental"] += 1
        # Stamp before taking the lock: the dataset is immutable, so
        # admission and stats() need not wait behind the hash.
        fingerprint = self._incremental.dataset.fingerprint
        # Publish under the lock: the applied log, the watermark and the
        # visible snapshot advance as one atomic step, so a concurrent
        # stats() read cannot pair a new watermark with the old version
        # (or vice versa).
        with self._cond:
            self._applied.extend(claims)
            snapshot = TruthSnapshot(
                version=previous.version + 1,
                watermark=self._watermark_base + len(self._applied),
                result=outcome.result,
                partition=outcome.partition,
                silhouette_by_k=dict(outcome.silhouette_by_k),
                exact=True,
                pending_claims=self._pending_claims,
                dataset_fingerprint=fingerprint,
                config_fingerprint=self._config.fingerprint(),
            )
            self._snapshot = snapshot
        return snapshot
