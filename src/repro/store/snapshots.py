"""Versioned, content-addressed on-disk snapshot store.

Each persisted snapshot is one file, ``snapshot-<version>-<address>.json``,
where the address is a digest of ``(Dataset.fingerprint,
TDACConfig.fingerprint, watermark)`` — the triple that determines an
exact snapshot's content.  A restore refits the checkpointed corpus, so
a file holds only what recovery, compaction and inspection read.  Its
first line is ``tdac-snapshot/v3 <sha256 of the body>``.  The body is:

* one JSON head line (``json.dumps(head, sort_keys=True)``) holding
  ``stamp`` — the snapshot's version, watermark and fingerprints;
  ``store`` — ``min_live_lsn``, ``next_sequence``, the base algorithm
  name and the full config; ``dataset`` — the **accumulated dataset**'s
  name, identifier tables, attribute types and value table
  (:func:`repro.data.io.dataset_columns`); and ``columns`` — how many
  claims and truths the code columns hold;
* then the claim code columns (source, object, attribute, value) and
  the truth code columns (object, attribute, value), as raw
  little-endian ``int32`` blocks.

Recovery rebuilds the corpus from the dataset and replays only the WAL
tail above the watermark, so WAL segments below it can be compacted
away.  The columns are raw because a restore reads them with one
``np.frombuffer`` instead of parsing and decoding a JSON list per claim.

:meth:`SnapshotStore.load` checks the header and the digest of the bytes
read before it parses the head; a file of another schema (``v1`` and
``v2`` included) is refused by name.  Recovery parses exactly one file,
the newest that loads (:meth:`SnapshotStore.latest_valid`); older files
are read only as the fallback when a newer one is corrupt.  Only the
head is ever parsed: the columns are views over the bytes read.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.store.records import StoreError
from repro.store.wal import WALCorruptionWarning

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import TDACConfig
    from repro.data.dataset import Dataset
    from repro.serving.snapshot import TruthSnapshot

#: Version tag of the persisted snapshot file (its header's first word).
SNAPSHOT_SCHEMA = "tdac-snapshot/v3"

SNAPSHOT_PREFIX = "snapshot-"
SNAPSHOT_SUFFIX = ".json"

#: A single-document (v1) file's snapshot schema, named when it is
#: refused; its served result nests a ``tdac-result/v1`` schema first.
_EMBEDDED_SCHEMA = re.compile(rb'"schema": ?"(tdac-snapshot/[^"]{1,32})"')


def snapshot_address(
    dataset_fingerprint: str, config_fingerprint: str, watermark: int
) -> str:
    """Content address of a snapshot: what it serves, not when it ran."""
    blob = f"{dataset_fingerprint}:{config_fingerprint}:{watermark}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _found_schema(header: bytes) -> str:
    """A refused file's schema: a v1 document's field, else its first word."""
    match = _EMBEDDED_SCHEMA.search(header) if header[:1] == b"{" else None
    found = match.group(1) if match else header.partition(b" ")[0][:64]
    return found.decode("ascii", "replace")


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
        min_live_lsn: int,
        next_sequence: int,
        base_algorithm: str,
        config: "TDACConfig",
    ) -> Path:
        """Persist ``snapshot``'s stamp plus its dataset as a checkpoint.

        The dataset is coded once (:func:`repro.data.io.dataset_columns`)
        and the head serialised once; a value JSON cannot hold raises
        :class:`StoreError` naming its type.  The write is atomic and
        durable (temp file, fsync, rename, directory fsync), so a crash
        mid-write leaves at worst an ignorable ``.tmp`` file, and a
        checkpoint that compaction trusts is on disk.
        """
        from repro.data.io import dataset_columns

        dataset_head, claims, truth = dataset_columns(dataset)
        head = {
            "stamp": {
                "version": snapshot.version,
                "watermark": snapshot.watermark,
                "dataset_fingerprint": snapshot.dataset_fingerprint,
                "config_fingerprint": snapshot.config_fingerprint,
            },
            "dataset": dataset_head,
            "columns": {"claims": claims.shape[1], "truth": truth.shape[1]},
            "store": {
                "min_live_lsn": min_live_lsn,
                "next_sequence": next_sequence,
                "base_algorithm": base_algorithm,
                "config": config.to_dict(),
            },
        }
        try:
            encoded = json.dumps(head, sort_keys=True).encode("utf-8")
        except TypeError as exc:
            raise StoreError(f"cannot checkpoint the dataset: {exc}") from exc
        body = b"".join((encoded, b"\n", claims.tobytes(), truth.tobytes()))
        digest = hashlib.sha256(body).hexdigest()
        address = snapshot_address(
            snapshot.dataset_fingerprint,
            snapshot.config_fingerprint,
            snapshot.watermark,
        )
        name = f"{SNAPSHOT_PREFIX}{snapshot.version:010d}-{address}{SNAPSHOT_SUFFIX}"
        path = self.directory / name
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            handle.write(f"{SNAPSHOT_SCHEMA} {digest}\n".encode("ascii"))
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
        directory = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        return path

    def load(self, path: Path) -> dict[str, Any]:
        """Read one snapshot file; check its header and digest, then parse.

        Returns ``{"stamp", "dataset", "store"}``, the dataset dict
        holding its code columns as read-only ``int32`` arrays over the
        bytes read (:func:`repro.data.io.dataset_from_dict` decodes it).
        Only the head is parsed; the columns are views, not copies.
        """
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise StoreError(f"unreadable snapshot {path.name}: {exc}") from exc
        header, _, body = data.partition(b"\n")
        schema, _, digest = header.partition(b" ")
        if schema != SNAPSHOT_SCHEMA.encode("ascii"):
            raise StoreError(
                f"snapshot {path.name} carries schema "
                f"{_found_schema(header)!r}; only {SNAPSHOT_SCHEMA} is read"
            )
        if digest != hashlib.sha256(body).hexdigest().encode("ascii"):
            raise StoreError(f"snapshot {path.name} failed its checksum")
        head_end = body.find(b"\n")
        try:
            if head_end < 0:
                raise ValueError("no line ends the head")
            payload = json.loads(body[:head_end])
            columns = payload.pop("columns")
            n, m = int(columns["claims"]), int(columns["truth"])
        except (ValueError, TypeError, KeyError) as exc:
            raise StoreError(
                f"unreadable snapshot {path.name}: {exc!r}"
            ) from exc
        size = len(body) - head_end - 1
        if min(n, m) < 0 or size != 4 * (4 * n + 3 * m):
            raise StoreError(
                f"snapshot {path.name} holds {size} bytes of code columns; "
                f"its head declares {n} claims and {m} truths"
            )
        codes = np.frombuffer(body, dtype="<i4", offset=head_end + 1)
        payload["dataset"]["claims"] = codes[:4 * n].reshape(4, n)
        payload["dataset"]["truth"] = codes[4 * n:].reshape(3, m)
        return payload

    def valid(self) -> Iterator[tuple[dict[str, Any], Path]]:
        """Snapshots that validate, newest first, read by :meth:`load`.

        Each invalid file passed over produces a loud warning (the state
        it held is lost; recovery falls back to the previous checkpoint
        plus a longer WAL replay) — never a silent skip.
        """
        for entry in self.entries():
            try:
                payload = self.load(entry.path)
            except StoreError as exc:
                warnings.warn(
                    f"snapshot {entry.path.name} is invalid ({exc}); "
                    "falling back to an older checkpoint",
                    WALCorruptionWarning,
                    stacklevel=3,
                )
                continue
            yield payload, entry.path

    def latest_valid(self) -> tuple[dict[str, Any], Path] | None:
        """Newest snapshot that validates, falling back over corrupt ones."""
        return next(self.valid(), None)
