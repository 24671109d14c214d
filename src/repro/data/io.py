"""Serialisation of datasets to and from JSON and CSV.

The JSON format is self-contained (identifier tables, a value table,
claim and truth code columns, name) and round-trips exactly, dict order
included; it is the columnar codec a store checkpoint writes too, with
the code columns as raw ``int32`` blocks instead of JSON lists
(:mod:`repro.store.snapshots`).  The CSV format is the common
interchange layout for truth discovery corpora: one claim per row with
columns ``source,object,attribute,value`` plus an optional separate
truth file with columns ``object,attribute,value``.
"""

from __future__ import annotations

import csv
import json
from operator import itemgetter
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.data.builder import DatasetBuilder
from repro.data.dataset import Dataset, canonical_value, coded_pieces
from repro.data.types import DataError, freeze_value

#: Version of the columnar dataset dict; version 1 (one list per claim)
#: is refused by name.
_FORMAT_VERSION = 2

#: Code column rows of the claim and truth columns.
_CLAIM_ROWS = ("source", "object", "attribute", "value")
_TRUTH_ROWS = ("object", "attribute", "value")


def dataset_columns(dataset: Dataset) -> tuple[dict, np.ndarray, np.ndarray]:
    """Encode ``dataset`` as a head dict plus its integer code columns.

    The head holds ``format_version`` 2, the name, the source / object
    / attribute tables in order, the non-categorical attribute types
    (only for a typed dataset) and the value table.  ``claims`` is a
    ``(4, n)`` little-endian ``int32`` array of source, object,
    attribute and value codes, in the claim map's order; ``truth`` a
    ``(3, m)`` one of object, attribute and value codes, in the truth
    map's order.  Values are deduplicated by ``repr``, so
    ``1``, ``1.0``, ``True``, ``-0.0``, ``(1,)`` and ``(1.0,)`` keep
    entries of their own (the dataset's one NaN object is one entry).
    A checkpoint stores the columns as raw blocks, a JSON file
    (:func:`dataset_to_dict`) as lists.
    """
    claims = dataset.claims
    truth = dataset.truth
    values = [*claims.values(), *truth.values()]
    keys = list(map(repr, values))
    table = dict(zip(keys, values))  # first-seen order; one value per repr
    code = {key: i for i, key in enumerate(table)}
    value_codes = np.fromiter(
        map(code.__getitem__, keys), dtype="<i4", count=len(keys)
    )
    head = {
        "format_version": _FORMAT_VERSION,
        "name": dataset.name,
        "sources": list(dataset.sources),
        "objects": list(dataset.objects),
        "attributes": list(dataset.attributes),
        "values": list(table.values()),
    }
    if dataset.has_typed_attributes:
        head["attribute_types"] = {
            a: kind
            for a, kind in dataset.attribute_types.items()
            if kind != "categorical"
        }
    n = len(claims)
    identifiers = (dataset.sources, dataset.objects, dataset.attributes)
    return (
        head,
        _code_rows(claims, identifiers, value_codes[:n]),
        _code_rows(truth, identifiers[1:], value_codes[n:]),
    )


def _code_rows(mapping: Mapping, tables: tuple, value_codes) -> np.ndarray:
    """``mapping``'s keys coded into ``tables``, one row per key item,
    over a last row of ``value_codes``."""
    rows = np.empty((len(tables) + 1, len(mapping)), dtype="<i4")
    for i, table in enumerate(tables):
        rank = {item: code for code, item in enumerate(table)}
        rows[i] = np.fromiter(
            map(rank.__getitem__, map(itemgetter(i), mapping)),
            dtype="<i4",
            count=len(mapping),
        )
    rows[-1] = value_codes
    return rows


def dataset_to_dict(dataset: Dataset) -> dict:
    """Encode ``dataset`` as a JSON-serialisable dictionary.

    The columnar form of :func:`dataset_columns` (``format_version``
    2): the head's tables, plus ``claims`` as four code lists (source,
    object, attribute, value) and ``truth`` as three (object,
    attribute, value).
    """
    head, claims, truth = dataset_columns(dataset)
    return {**head, "claims": claims.tolist(), "truth": truth.tolist()}


def dataset_from_dict(
    payload: Mapping, *, keep_pieces: bool = False
) -> Dataset:
    """Decode a dataset from :func:`dataset_to_dict` output.

    ``claims`` and ``truth`` may be lists (a JSON file) or integer
    arrays (a checkpoint's raw columns).  A code outside its table, a
    claim key or truth fact given twice, or a column of the wrong
    shape raises :class:`DataError`; so does any ``format_version``
    but 2.  The claim and truth maps keep the columns' order.  With
    ``keep_pieces`` the dataset keeps its sorted fingerprint pieces
    (:meth:`Dataset.keep_pieces`), built from the tables' ``repr``
    instead of each claim's.
    """
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise DataError(
            f"unsupported dataset format version: {version!r} (only "
            f"version {_FORMAT_VERSION}, the columnar dict, is read)"
        )
    values = [
        canonical_value(freeze_value(v)) for v in payload.get("values", [])
    ]
    sources = tuple(payload.get("sources", []))
    objects = tuple(payload.get("objects", []))
    attributes = tuple(payload.get("attributes", []))
    tables = (sources, objects, attributes, values)
    s, o, a, v = claim_codes = _decode_codes(
        payload.get("claims"), tables, _CLAIM_ROWS
    )
    claims = dict(
        zip(
            zip(
                map(sources.__getitem__, s),
                map(objects.__getitem__, o),
                map(attributes.__getitem__, a),
            ),
            map(values.__getitem__, v),
        )
    )
    if len(claims) != len(v):
        raise DataError("the claim columns hold a claim key twice")
    o, a, v = _decode_codes(payload.get("truth"), tables[1:], _TRUTH_ROWS)
    truth = dict(
        zip(
            zip(map(objects.__getitem__, o), map(attributes.__getitem__, a)),
            map(values.__getitem__, v),
        )
    )
    if len(truth) != len(v):
        raise DataError("the truth columns hold a fact twice")
    return Dataset._decoded(
        sources,
        objects,
        attributes,
        claims,
        truth,
        name=payload.get("name", "dataset"),
        attribute_types=payload.get("attribute_types", {}),
        pieces=coded_pieces(tables, claim_codes) if keep_pieces else None,
    )


def _decode_codes(column, tables: tuple, rows: tuple) -> list[list[int]]:
    """Range-checked code rows of one ``column`` (lists or an array)."""
    names = "/".join(rows)
    if column is None or (isinstance(column, list) and not column):
        column = [[]] * len(rows)
    try:
        codes = np.asarray(column)
    except ValueError as exc:  # ragged lists
        raise DataError(f"malformed {names} code columns: {exc}") from exc
    if codes.size == 0 and not isinstance(column, np.ndarray):
        codes = codes.astype("<i4")  # empty JSON lists carry no dtype
    if (
        codes.ndim != 2
        or codes.shape[0] != len(rows)
        or codes.dtype.kind not in "iu"
    ):
        raise DataError(
            f"the {names} code columns must be {len(rows)} rows "
            f"of integers, not an array of shape {codes.shape} and dtype "
            f"{codes.dtype}"
        )
    if codes.shape[1]:
        low, high = codes.min(axis=1), codes.max(axis=1)
        sizes = np.array([len(table) for table in tables])
        bad = (low < 0) | (high >= sizes)
        if bad.any():
            row = int(np.argmax(bad))
            raise DataError(
                f"{rows[row]} code out of range: codes span "
                f"[{low[row]}, {high[row]}] over a table of {sizes[row]}"
            )
    return [row.tolist() for row in codes]


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
                    freeze_value(payload["value"]),
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

