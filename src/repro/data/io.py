"""Serialisation of datasets to and from JSON and CSV.

The JSON format is self-contained (universes, claims, ground truth, name)
and round-trips exactly.  The CSV format is the common interchange layout
for truth discovery corpora: one claim per row with columns
``source,object,attribute,value`` plus an optional separate truth file
with columns ``object,attribute,value``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping

from repro.data.builder import DatasetBuilder
from repro.data.dataset import Dataset
from repro.data.types import DataError, Value

_FORMAT_VERSION = 1


def dataset_to_dict(dataset: Dataset) -> dict:
    """Encode ``dataset`` as a JSON-serialisable dictionary."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "name": dataset.name,
        "sources": list(dataset.sources),
        "objects": list(dataset.objects),
        "attributes": list(dataset.attributes),
        "claims": [
            [s, o, a, v] for (s, o, a), v in dataset.claims.items()
        ],
        "truth": [
            [o, a, v] for (o, a), v in sorted(dataset.truth.items())
        ],
    }
    if dataset.has_typed_attributes:
        # Emitted only for typed datasets so pre-existing files and
        # fixtures keep byte-identical output.
        payload["attribute_types"] = {
            a: kind
            for a, kind in dataset.attribute_types.items()
            if kind != "categorical"
        }
    return payload


def dataset_from_dict(payload: Mapping) -> Dataset:
    """Decode a dataset from :func:`dataset_to_dict` output."""
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise DataError(f"unsupported dataset format version: {version!r}")
    builder = DatasetBuilder(name=payload.get("name", "dataset"))
    builder.declare_sources(payload.get("sources", []))
    builder.declare_objects(payload.get("objects", []))
    builder.declare_attributes(payload.get("attributes", []))
    builder.declare_attribute_types(payload.get("attribute_types", {}))
    for source, obj, attribute, value in payload.get("claims", []):
        builder.add_claim(source, obj, attribute, _freeze(value))
    for obj, attribute, value in payload.get("truth", []):
        builder.set_truth(obj, attribute, _freeze(value))
    return builder.build()


def save_json(dataset: Dataset, path: str | Path) -> None:
    """Write ``dataset`` to ``path`` as JSON."""
    Path(path).write_text(
        json.dumps(dataset_to_dict(dataset), indent=2, sort_keys=False)
    )


def load_json(path: str | Path) -> Dataset:
    """Read a dataset previously written by :func:`save_json`."""
    return dataset_from_dict(json.loads(Path(path).read_text()))


def save_claims_jsonl(dataset: Dataset, path: str | Path) -> None:
    """Write one claim per line as JSON (streaming-friendly interchange)."""
    with open(path, "w") as handle:
        for claim in dataset.iter_claims():
            handle.write(
                json.dumps(
                    {
                        "source": claim.source,
                        "object": claim.object,
                        "attribute": claim.attribute,
                        "value": claim.value,
                    }
                )
            )
            handle.write("\n")


def load_claims_jsonl(
    path: str | Path, name: str = "dataset"
) -> Dataset:
    """Read a dataset from a JSON-lines claim stream.

    Each line holds one object with ``source`` / ``object`` /
    ``attribute`` / ``value`` keys; malformed lines raise
    :class:`DataError` with the offending line number.
    """
    builder = DatasetBuilder(name=name)
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                builder.add_claim(
                    payload["source"],
                    payload["object"],
                    payload["attribute"],
                    _freeze(payload["value"]),
                )
            except (KeyError, ValueError) as exc:
                if isinstance(exc, DataError):
                    raise
                raise DataError(
                    f"{path}:{line_number}: malformed claim line ({exc})"
                ) from exc
    return builder.build()


def save_claims_csv(dataset: Dataset, path: str | Path) -> None:
    """Write one claim per row: ``source,object,attribute,value``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["source", "object", "attribute", "value"])
        for claim in dataset.iter_claims():
            writer.writerow([claim.source, claim.object, claim.attribute, claim.value])


def save_truth_csv(dataset: Dataset, path: str | Path) -> None:
    """Write the ground truth: ``object,attribute,value`` per row."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["object", "attribute", "value"])
        for (obj, attribute), value in sorted(dataset.truth.items()):
            writer.writerow([obj, attribute, value])


def load_csv(
    claims_path: str | Path,
    truth_path: str | Path | None = None,
    name: str = "dataset",
) -> Dataset:
    """Read a dataset from claim (and optional truth) CSV files.

    Values are kept as strings — CSV has no type information; callers who
    need typed values should post-process or use the JSON format.
    """
    builder = DatasetBuilder(name=name)
    with open(claims_path, newline="") as handle:
        reader = csv.DictReader(handle)
        _require_columns(reader, {"source", "object", "attribute", "value"}, claims_path)
        for row in reader:
            builder.add_claim(row["source"], row["object"], row["attribute"], row["value"])
    if truth_path is not None:
        with open(truth_path, newline="") as handle:
            reader = csv.DictReader(handle)
            _require_columns(reader, {"object", "attribute", "value"}, truth_path)
            for row in reader:
                builder.set_truth(row["object"], row["attribute"], row["value"])
    return builder.build()


def _require_columns(reader: csv.DictReader, required: set, path) -> None:
    headers = set(reader.fieldnames or [])
    missing = required - headers
    if missing:
        raise DataError(f"{path}: missing CSV columns {sorted(missing)}")


def _freeze(value: Value) -> Value:
    """Make JSON-decoded values hashable (lists become tuples)."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value
