"""Versioned, content-addressed on-disk snapshot store.

Each persisted snapshot is one self-contained JSON file,
``snapshot-<version>-<address>.json``, where the address is a digest of
``(Dataset.fingerprint, TDACConfig.fingerprint, watermark)`` — the
triple that fully determines an exact snapshot's content.  The payload
carries:

* the served state in the shared ``tdac-result/v1`` schema (the
  ``result`` key, exactly ``TruthSnapshot.to_dict()``);
* the **accumulated dataset** at the snapshot's watermark
  (:func:`repro.data.io.dataset_to_dict`), which is what makes a
  snapshot a true checkpoint: recovery rebuilds the dataset from here
  and only replays the WAL tail above the watermark, so WAL segments
  below it can be compacted away;
* store metadata (``wal_lsn``, ``min_live_lsn``, ``next_sequence``,
  the base/reference algorithm names and the full config) plus a
  SHA-256 checksum over the rest of the payload.

Recovery parses exactly one file: the newest snapshot that loads
(:meth:`SnapshotStore.latest_valid`).  Older files are read only as the
fallback when a newer one is corrupt.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.store.records import StoreError
from repro.store.wal import WALCorruptionWarning

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import TDACConfig
    from repro.data.dataset import Dataset
    from repro.serving.snapshot import TruthSnapshot

#: Version tag of the persisted snapshot payload.
SNAPSHOT_SCHEMA = "tdac-snapshot/v1"

SNAPSHOT_PREFIX = "snapshot-"
SNAPSHOT_SUFFIX = ".json"


def snapshot_address(
    dataset_fingerprint: str, config_fingerprint: str, watermark: int
) -> str:
    """Content address of a snapshot: what it serves, not when it ran."""
    blob = f"{dataset_fingerprint}:{config_fingerprint}:{watermark}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _payload_checksum(payload: dict[str, Any]) -> str:
    """SHA-256 over the canonical payload with the checksum field blanked."""
    scrubbed = dict(payload)
    store_meta = dict(scrubbed.get("store", {}))
    store_meta.pop("checksum", None)
    scrubbed["store"] = store_meta
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SnapshotEntry:
    """One snapshot file, identified without opening it."""

    path: Path
    version: int
    address: str


class SnapshotStore:
    """Directory of checksummed, versioned snapshot checkpoints."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------

    def entries(self) -> list[SnapshotEntry]:
        """All snapshot files, newest version first."""
        found = []
        for path in self.directory.glob(
            f"{SNAPSHOT_PREFIX}*{SNAPSHOT_SUFFIX}"
        ):
            stem = path.name[len(SNAPSHOT_PREFIX):-len(SNAPSHOT_SUFFIX)]
            version_part, _, address = stem.partition("-")
            try:
                version = int(version_part)
            except ValueError:
                continue
            found.append(SnapshotEntry(path, version, address))
        found.sort(key=lambda e: (e.version, e.path.name), reverse=True)
        return found

    def is_empty(self) -> bool:
        return not self.entries()

    # ------------------------------------------------------------------

    def record(
        self,
        snapshot: "TruthSnapshot",
        dataset: "Dataset",
        *,
        wal_lsn: int,
        min_live_lsn: int,
        next_sequence: int,
        base_algorithm: str,
        reference_algorithm: str,
        config: "TDACConfig",
    ) -> Path:
        """Persist ``snapshot`` (plus its dataset) as a checkpoint file.

        The write is atomic (temp file + rename) so a crash mid-write
        leaves at worst an ignorable ``.tmp`` file, never a half
        snapshot that shadows an older valid one.
        """
        from repro.data.io import dataset_to_dict

        address = snapshot_address(
            snapshot.dataset_fingerprint,
            snapshot.config_fingerprint,
            snapshot.watermark,
        )
        payload: dict[str, Any] = {
            "schema": SNAPSHOT_SCHEMA,
            "result": snapshot.to_dict(),
            "dataset": dataset_to_dict(dataset),
            "store": {
                "address": address,
                "wal_lsn": wal_lsn,
                "min_live_lsn": min_live_lsn,
                "next_sequence": next_sequence,
                "base_algorithm": base_algorithm,
                "reference_algorithm": reference_algorithm,
                "config": config.to_dict(),
            },
        }
        payload["store"]["checksum"] = _payload_checksum(payload)
        name = f"{SNAPSHOT_PREFIX}{snapshot.version:010d}-{address}{SNAPSHOT_SUFFIX}"
        path = self.directory / name
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(payload, sort_keys=True, default=str) + "\n"
        )
        tmp.replace(path)
        return path

    def load(self, path: Path) -> dict[str, Any]:
        """Read and validate one snapshot file."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"unreadable snapshot {path.name}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("schema") != SNAPSHOT_SCHEMA:
            raise StoreError(
                f"snapshot {path.name} does not carry the "
                f"{SNAPSHOT_SCHEMA} schema"
            )
        recorded = payload.get("store", {}).get("checksum")
        if recorded != _payload_checksum(payload):
            raise StoreError(f"snapshot {path.name} failed its checksum")
        return payload

    def latest_valid(self) -> tuple[dict[str, Any], Path] | None:
        """Newest snapshot that validates, falling back over corrupt ones.

        A corrupt newer snapshot produces a loud warning (the state it
        held is lost; recovery falls back to the previous checkpoint
        plus a longer WAL replay) — never a silent skip.
        """
        for entry in self.entries():
            try:
                return self.load(entry.path), entry.path
            except StoreError as exc:
                warnings.warn(
                    f"snapshot {entry.path.name} is invalid ({exc}); "
                    "falling back to an older checkpoint",
                    WALCorruptionWarning,
                    stacklevel=2,
                )
        return None
