"""Durable persistence for the serving layer: claim WAL + snapshots.

``repro.store`` gives :class:`~repro.serving.TruthService` a crash-safe
backing directory:

* :class:`ClaimWAL` — append-only, checksummed JSON-lines log of every
  admitted claim batch, rotated into sealed segments;
* :class:`SnapshotStore` — versioned, content-addressed
  ``tdac-snapshot/v3`` checkpoints: the served
  :class:`~repro.serving.TruthSnapshot`'s stamp plus the accumulated
  dataset, as a JSON head over raw ``int32`` claim and truth code
  columns, under a SHA-256 of the bytes written;
* :class:`TruthStore` — the facade combining both, with
  :meth:`~TruthStore.recover` (rebuild the applied history from disk)
  and :meth:`~TruthStore.compact` (fold sealed WAL segments below the
  live frontier of the older of the two newest checkpoints, so the
  fallback checkpoint keeps its WAL tail).

The subsystem is opt-in: a service without a ``store=`` stays purely
in-memory and pays nothing.
"""

from repro.store.records import (
    RECORD_TYPES,
    Record,
    RecordCorruptError,
    StoreError,
    WAL_SCHEMA,
    decode_claim,
    decode_record,
    encode_claim,
    encode_record,
)
from repro.store.snapshots import (
    SNAPSHOT_SCHEMA,
    SnapshotEntry,
    SnapshotStore,
    snapshot_address,
)
from repro.store.store import ReplayBatch, StoreRecovery, TruthStore, open_store
from repro.store.wal import ClaimWAL, WALCorruptionWarning, WALScan

__all__ = [
    "ClaimWAL",
    "RECORD_TYPES",
    "Record",
    "RecordCorruptError",
    "ReplayBatch",
    "SNAPSHOT_SCHEMA",
    "SnapshotEntry",
    "SnapshotStore",
    "StoreError",
    "StoreRecovery",
    "TruthStore",
    "WALCorruptionWarning",
    "WALScan",
    "WAL_SCHEMA",
    "decode_claim",
    "decode_record",
    "encode_claim",
    "encode_record",
    "open_store",
    "snapshot_address",
]
