"""The durable store facade: claim WAL + snapshot checkpoints + recovery.

:class:`TruthStore` owns one directory::

    <root>/
      wal/        rotating JSON-lines claim segments  (ClaimWAL)
      snapshots/  versioned checkpoint files          (SnapshotStore)

and exposes exactly the operations the serving layer needs:

* **append_admit** — called by ``TruthService.ingest`` *before* the
  admission is acknowledged, so every claim a client ever got a ticket
  for survives a crash;
* **append_commit / append_abort** — the batcher's outcome records.
  Only committed batches are replayed by recovery; an admitted batch
  that was rejected (one-truth conflict) or still pending at the crash
  is surfaced, never silently re-applied, because the uninterrupted
  service did not apply it either;
* **record_snapshot** — checkpoint the served snapshot's stamp and
  accumulated dataset so recovery replays only the WAL tail above the
  snapshot watermark;
* **recover** — the read path behind ``TruthService.restore``: latest
  valid snapshot, committed tail batches in commit order, uncommitted
  leftovers, and every corruption warning the scan raised;
* **compact** — delete sealed WAL segments wholly below the live
  frontier (``min_live_lsn``) of the older of the two newest valid
  checkpoints: below it no recovery, not even one that falls back over
  a corrupt newest checkpoint, needs an admit or commit record.

All operations run under the ambient
:class:`~repro.observability.SpanTracer` (``store.append``,
``store.flush``, ``store.recover``, ``store.compact`` spans;
``store.durable_bytes`` and ``store.replayed_claims`` counters), so a
traced serving run shows durability cost next to refit cost.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.data.types import Claim
from repro.observability import current_tracer
from repro.store.records import (
    StoreError,
    decode_claim,
    encode_claim,
)
from repro.store.snapshots import SnapshotStore
from repro.store.wal import ClaimWAL, WALCorruptionWarning

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import TDACConfig
    from repro.serving.snapshot import TruthSnapshot


@dataclass(frozen=True)
class ReplayBatch:
    """One committed micro-batch recovery must re-apply, in commit order."""

    version: int
    watermark: int
    claims: tuple[Claim, ...]


@dataclass
class StoreRecovery:
    """Everything :meth:`TruthStore.recover` reconstructed from disk."""

    checkpoint: dict | None = None
    batches: list[ReplayBatch] = field(default_factory=list)
    uncommitted: list[tuple[int, tuple[Claim, ...]]] = field(
        default_factory=list
    )
    aborted_claims: int = 0
    next_sequence: int = 0
    warnings: list[str] = field(default_factory=list)

    @property
    def replayed_claims(self) -> int:
        """Claims recovery re-applies on top of the checkpoint."""
        return sum(len(batch.claims) for batch in self.batches)

    @property
    def uncommitted_claims(self) -> int:
        """Admitted claims whose outcome the crash swallowed."""
        return sum(len(claims) for _, claims in self.uncommitted)


class TruthStore:
    """Durable claim WAL + snapshot checkpoints under one directory."""

    def __init__(
        self,
        root: str | Path,
        *,
        segment_max_records: int = 1024,
        segment_max_bytes: int = 1 << 20,
        sync: str = "commit",
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.wal = ClaimWAL(
            self.root / "wal",
            segment_max_records=segment_max_records,
            segment_max_bytes=segment_max_bytes,
            sync=sync,
        )
        self.snapshots = SnapshotStore(self.root / "snapshots")
        #: admission offset -> (admit record lsn, claim count) for every
        #: admitted batch with no commit/abort record yet; its minimum
        #: lsn is the compaction frontier.
        self._uncommitted: dict[int, tuple[int, int]] = {}
        # Ingest threads admit while the batcher commits/aborts; the
        # lock keeps the uncommitted map and the WAL append it mirrors
        # atomic with respect to each other.
        self._lock = threading.Lock()
        self._snapshots_written = 0
        self._compactions = 0
        self._rebuild_pending()

    def _rebuild_pending(self) -> None:
        """Re-derive the uncommitted-admit map from the log on open."""
        for record in self.wal.scan().records:
            if record.type == "admit":
                offset = int(record.body["offset"])
                self._uncommitted[offset] = (
                    record.lsn,
                    len(record.body["claims"]),
                )
            else:  # commit / abort both settle their admits
                for offset, _count in record.body.get("applied", []):
                    self._uncommitted.pop(int(offset), None)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        """Whether neither the WAL nor the snapshot store holds state."""
        return self.wal.is_empty() and self.snapshots.is_empty()

    @property
    def min_live_lsn(self) -> int:
        """Smallest LSN recovery could still need (compaction frontier)."""
        with self._lock:
            if self._uncommitted:
                return min(lsn for lsn, _ in self._uncommitted.values())
        return self.wal.next_lsn

    @property
    def stats(self) -> dict:
        """Durability counters for ``TruthService.stats``."""
        return {
            "wal_records": self.wal.next_lsn,
            "durable_bytes": self.wal.bytes_appended,
            "segments": len(self.wal.segments()),
            "snapshots": len(self.snapshots.entries()),
            "snapshots_written": self._snapshots_written,
            "compactions": self._compactions,
            "uncommitted_batches": len(self._uncommitted),
        }

    def close(self) -> None:
        self.wal.close()

    # ------------------------------------------------------------------
    # Write path (called by the serving layer)
    # ------------------------------------------------------------------

    def append_admit(self, offset: int, claims: Sequence[Claim]) -> int:
        """Durably record an admitted batch *before* its ticket is issued."""
        tracer = current_tracer()
        before = self.wal.bytes_appended
        with tracer.span("store.append", kind="admit", claims=len(claims)):
            with self._lock:
                lsn = self.wal.append(
                    "admit",
                    {
                        "offset": offset,
                        "claims": [encode_claim(c) for c in claims],
                    },
                )
                self._uncommitted[offset] = (lsn, len(claims))
        tracer.count("store.durable_bytes", self.wal.bytes_appended - before)
        tracer.count("store.appends")
        return lsn

    def append_commit(
        self,
        version: int,
        watermark: int,
        applied: Sequence[tuple[int, int]],
    ) -> int:
        """Record that the batches in ``applied`` produced ``watermark``."""
        tracer = current_tracer()
        before = self.wal.bytes_appended
        with tracer.span("store.append", kind="commit"):
            with self._lock:
                lsn = self.wal.append(
                    "commit",
                    {
                        "version": version,
                        "watermark": watermark,
                        "applied": [[o, n] for o, n in applied],
                    },
                )
                for offset, _n in applied:
                    self._uncommitted.pop(offset, None)
        tracer.count("store.durable_bytes", self.wal.bytes_appended - before)
        tracer.count("store.commits")
        return lsn

    def append_abort(
        self, applied: Sequence[tuple[int, int]], reason: str
    ) -> int:
        """Record that the batches in ``applied`` were rejected."""
        tracer = current_tracer()
        before = self.wal.bytes_appended
        with tracer.span("store.append", kind="abort"):
            with self._lock:
                lsn = self.wal.append(
                    "abort",
                    {
                        "applied": [[o, n] for o, n in applied],
                        "reason": reason[:500],
                    },
                )
                for offset, _n in applied:
                    self._uncommitted.pop(offset, None)
        tracer.count("store.durable_bytes", self.wal.bytes_appended - before)
        tracer.count("store.aborts")
        return lsn

    def record_snapshot(
        self,
        snapshot: "TruthSnapshot",
        dataset,
        *,
        next_sequence: int,
        base_algorithm: str,
        config: "TDACConfig",
    ) -> Path:
        """Checkpoint the served state; fsyncs the WAL first."""
        tracer = current_tracer()
        with tracer.span(
            "store.flush", version=snapshot.version, watermark=snapshot.watermark
        ):
            self.wal.flush()
            path = self.snapshots.record(
                snapshot,
                dataset,
                min_live_lsn=self.min_live_lsn,
                next_sequence=next_sequence,
                base_algorithm=base_algorithm,
                config=config,
            )
        self._snapshots_written += 1
        tracer.count("store.snapshots")
        return path

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> StoreRecovery:
        """Rebuild the applied-claim history from disk.

        Returns the latest valid checkpoint plus every batch committed
        after its watermark, in commit order — exactly the prefix an
        uninterrupted service applied.  Corruption (torn tail, bad
        checksum, sequence gap) recovers to the last valid record with
        a :class:`WALCorruptionWarning`; interior records past a
        corruption are reported, never silently dropped.  Raises
        :class:`StoreError` when a replayed batch does not continue the
        watermark before it (the first one, the checkpoint's): committed
        batches in between are gone, and replaying around the hole would
        serve a corpus that is no acknowledged prefix.
        """
        import warnings as _warnings

        tracer = current_tracer()
        recovery = StoreRecovery()
        with tracer.span("store.recover"):
            latest = self.snapshots.latest_valid()
            base_watermark = 0
            if latest is not None:
                recovery.checkpoint = latest[0]
                base_watermark = recovery.checkpoint["stamp"]["watermark"]
                recovery.next_sequence = (
                    recovery.checkpoint["store"]["next_sequence"]
                )
            scan = self.wal.scan()
            recovery.warnings.extend(scan.warnings)
            admits: dict[int, tuple[Claim, ...]] = {}
            for record in scan.records:
                if record.type == "admit":
                    offset = int(record.body["offset"])
                    claims = tuple(
                        decode_claim(c) for c in record.body["claims"]
                    )
                    admits[offset] = claims
                    recovery.next_sequence = max(
                        recovery.next_sequence, offset + len(claims)
                    )
                elif record.type == "abort":
                    for offset, count in record.body.get("applied", []):
                        claims = admits.pop(int(offset), ())
                        recovery.aborted_claims += len(claims) or int(count)
                else:  # commit
                    watermark = int(record.body["watermark"])
                    applied = [
                        (int(o), int(n))
                        for o, n in record.body.get("applied", [])
                    ]
                    if watermark <= base_watermark:
                        # Folded into the checkpoint already; the admit
                        # records may legitimately be compacted away.
                        for offset, _n in applied:
                            admits.pop(offset, None)
                        continue
                    batch_claims: list[Claim] = []
                    missing = False
                    for offset, count in applied:
                        claims = admits.pop(offset, None)
                        if claims is None or len(claims) != count:
                            missing = True
                            break
                        batch_claims.extend(claims)
                    if missing:
                        message = (
                            f"commit at lsn {record.lsn} (watermark "
                            f"{watermark}) references admit records that "
                            "are missing or short; stopping replay at the "
                            "last complete batch"
                        )
                        recovery.warnings.append(message)
                        _warnings.warn(
                            message, WALCorruptionWarning, stacklevel=2
                        )
                        break
                    previous = (
                        recovery.batches[-1].watermark
                        if recovery.batches
                        else base_watermark
                    )
                    if watermark != previous + len(batch_claims):
                        raise StoreError(
                            f"commit at lsn {record.lsn} (watermark "
                            f"{watermark}, {len(batch_claims)} claims) does "
                            f"not continue watermark {previous}; the WAL "
                            "lost committed batches after the checkpoint, "
                            "so no replay can rebuild an acknowledged prefix"
                        )
                    recovery.batches.append(
                        ReplayBatch(
                            version=int(record.body.get("version", 0)),
                            watermark=watermark,
                            claims=tuple(batch_claims),
                        )
                    )
            recovery.uncommitted = sorted(
                (offset, claims) for offset, claims in admits.items()
            )
            tracer.count("store.replayed_claims", recovery.replayed_claims)
            tracer.count("store.recoveries")
        return recovery

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self) -> dict:
        """Fold sealed WAL segments below the fallback checkpoint's frontier.

        Safe by construction: a checkpoint's recorded ``min_live_lsn``
        is the smallest LSN of any admit record that was still unsettled
        when it was cut, so every record a :meth:`recover` from it can
        need (tail commits, their admits, pending admits) lives at or
        above it.  The frontier kept is the older of the two newest
        valid checkpoints', so if the newest is later found corrupt,
        recovery falls back to the other one with its whole WAL tail.
        With one checkpoint its own frontier is kept; without one there
        is nothing to fold into, so compaction is a no-op.
        """
        tracer = current_tracer()
        with tracer.span("store.compact"):
            newest = list(islice(self.snapshots.valid(), 2))
            if not newest:
                return {"removed_segments": [], "keep_from_lsn": 0}
            keep_from = newest[-1][0]["store"]["min_live_lsn"]
            removed = self.wal.compact(keep_from)
        self._compactions += 1
        tracer.count("store.compactions")
        tracer.count("store.compacted_segments", len(removed))
        return {
            "removed_segments": [p.name for p in removed],
            "keep_from_lsn": keep_from,
        }

    # ------------------------------------------------------------------
    # Inspection (CLI)
    # ------------------------------------------------------------------

    def inspect(self) -> dict:
        """JSON-ready structural summary of the store directory."""
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", WALCorruptionWarning)
            scan = self.wal.scan()
            latest = self.snapshots.latest_valid()
        by_type: dict[str, int] = {}
        for record in scan.records:
            by_type[record.type] = by_type.get(record.type, 0) + 1
        return {
            "root": str(self.root),
            "wal": {
                "segments": [p.name for p in self.wal.segments()],
                "records": len(scan.records),
                "records_by_type": by_type,
                "next_lsn": scan.next_lsn,
                "uncommitted_batches": len(self._uncommitted),
                "warnings": list(scan.warnings),
            },
            "snapshots": [
                {
                    "file": entry.path.name,
                    "version": entry.version,
                    "address": entry.address,
                }
                for entry in self.snapshots.entries()
            ],
            "latest": latest[0]["stamp"] if latest is not None else None,
        }


def open_store(path: str | Path | TruthStore, **kwargs) -> TruthStore:
    """Coerce a path (or pass through an instance) into a TruthStore."""
    if isinstance(path, TruthStore):
        if kwargs:
            raise StoreError(
                "store options cannot be re-specified for an open TruthStore"
            )
        return path
    return TruthStore(path, **kwargs)
