"""Unit tests for :mod:`repro.store`: records, WAL, snapshots, facade.

Corruption handling is the heart of the contract: a torn tail, a
bit-flipped record or a sequence gap must recover to the last valid
offset with a loud :class:`WALCorruptionWarning` — never a silent skip
of interior records.
"""

import hashlib
import json
import os
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import numpy as np

from repro import TDAC, MajorityVote, TDACConfig, TruthService
from repro.data import (
    Claim,
    DataError,
    Dataset,
    DatasetIndex,
    dataset_from_dict,
    dataset_to_dict,
)
from repro.datasets import make_synthetic
from repro.core.config import RESULT_AFFECTING_FIELDS
from repro.serving import ServiceConfig
from repro.store import (
    SNAPSHOT_SCHEMA,
    ClaimWAL,
    RecordCorruptError,
    SnapshotStore,
    StoreError,
    TruthStore,
    WALCorruptionWarning,
    decode_claim,
    decode_record,
    encode_claim,
    encode_record,
    open_store,
    snapshot_address,
)
from repro.store.wal import segment_first_lsn, segment_name
from tests.strategies import claim_datasets
from tests.test_index import INDEX_ARRAYS, assert_same_values


@pytest.fixture
def dataset():
    return make_synthetic("DS1", n_objects=15, seed=11).dataset


def fresh_claims(dataset, tag, count):
    """``count`` new-object claims that can never conflict."""
    source = dataset.sources[0]
    attribute = dataset.attributes[0]
    return [
        Claim(source, f"obj-{tag}-{i}", attribute, f"v-{tag}-{i}")
        for i in range(count)
    ]


class TestRecords:
    def test_record_round_trip(self):
        line = encode_record(7, "admit", {"offset": 7, "claims": []})
        record = decode_record(line)
        assert record.lsn == 7
        assert record.type == "admit"
        assert record.body == {"offset": 7, "claims": []}

    def test_checksum_mismatch_detected(self):
        line = encode_record(0, "commit", {"watermark": 3, "applied": []})
        tampered = line.replace('"watermark":3', '"watermark":4')
        with pytest.raises(RecordCorruptError):
            decode_record(tampered)

    def test_unknown_type_rejected(self):
        with pytest.raises(StoreError):
            encode_record(0, "checkpoint", {})

    def test_claim_round_trip_preserves_value_types(self):
        for value in ["x", 3, 2.5, True, None, ("a", ("b", 1)), ()]:
            claim = Claim("s", "o", "a", value)
            assert decode_claim(encode_claim(claim)) == claim

    def test_bare_list_value_rejected(self):
        with pytest.raises(RecordCorruptError):
            decode_claim({"s": "s", "o": "o", "a": "a", "v": [1, 2]})


class TestClaimWAL:
    def test_append_scan_round_trip(self, tmp_path):
        wal = ClaimWAL(tmp_path, sync="never")
        for i in range(5):
            wal.append("admit", {"offset": i, "claims": []})
        wal.close()
        scan = ClaimWAL(tmp_path, sync="never").scan()
        assert [r.lsn for r in scan.records] == list(range(5))
        assert scan.next_lsn == 5
        assert not scan.warnings

    def test_segment_rotation_by_record_count(self, tmp_path):
        wal = ClaimWAL(tmp_path, segment_max_records=2, sync="never")
        for i in range(5):
            wal.append("admit", {"offset": i, "claims": []})
        wal.close()
        names = [p.name for p in wal.segments()]
        assert names == [segment_name(0), segment_name(2), segment_name(4)]
        assert segment_first_lsn(wal.segments()[1]) == 2

    def test_concurrent_appends_keep_lsn_order(self, tmp_path):
        # Regression: admits arrive from ingest threads while the
        # batcher appends commits.  Unsynchronised appends interleave
        # LSN assignment with the write carrying it, producing
        # out-of-order LSNs that the next recovery scan truncates at —
        # silently dropping acknowledged records.
        import threading

        wal = ClaimWAL(tmp_path, segment_max_records=64, sync="never")
        barrier = threading.Barrier(4)

        def hammer(worker: int) -> None:
            barrier.wait()
            for i in range(200):
                wal.append("admit", {"offset": worker * 1_000 + i, "claims": []})

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wal.close()
        scan = ClaimWAL(tmp_path, sync="never").scan()
        assert not scan.warnings
        assert [r.lsn for r in scan.records] == list(range(800))

    def test_torn_tail_recovers_with_loud_warning(self, tmp_path):
        wal = ClaimWAL(tmp_path, sync="never")
        for i in range(3):
            wal.append("admit", {"offset": i, "claims": []})
        wal.close()
        segment = wal.segments()[-1]
        raw = segment.read_bytes()
        segment.write_bytes(raw[:-7])  # tear the last record mid-line
        with pytest.warns(WALCorruptionWarning, match="torn tail"):
            reopened = ClaimWAL(tmp_path, sync="never")
        assert reopened.next_lsn == 2
        # The repair physically truncated the tail: a fresh scan is clean.
        assert not reopened.scan().warnings
        reopened.append("admit", {"offset": 2, "claims": []})
        reopened.close()

    def test_interior_corruption_never_silently_skipped(self, tmp_path):
        wal = ClaimWAL(tmp_path, sync="never")
        for i in range(4):
            wal.append("admit", {"offset": i, "claims": []})
        wal.close()
        segment = wal.segments()[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"offset":1', b'"offset":9')
        segment.write_bytes(b"".join(lines))
        with pytest.warns(WALCorruptionWarning, match="corrupt record"):
            scan = ClaimWAL(tmp_path, sync="never").scan()
        # Replay stops at the corruption; records 2 and 3 are *dropped
        # with a warning*, not replayed around the hole.
        assert [r.lsn for r in scan.records] == [0]

    def test_missing_segment_detected(self, tmp_path):
        wal = ClaimWAL(tmp_path, segment_max_records=2, sync="never")
        for i in range(6):
            wal.append("admit", {"offset": i, "claims": []})
        wal.close()
        wal.segments()[1].unlink()  # drop the middle segment
        with pytest.warns(WALCorruptionWarning, match="expected"):
            scan = ClaimWAL(tmp_path, sync="never").scan()
        assert [r.lsn for r in scan.records] == [0, 1]

    def test_compact_only_removes_fully_covered_sealed_segments(
        self, tmp_path
    ):
        wal = ClaimWAL(tmp_path, segment_max_records=2, sync="never")
        for i in range(7):
            wal.append("admit", {"offset": i, "claims": []})
        removed = wal.compact(keep_from_lsn=4)
        assert [p.name for p in removed] == [segment_name(0), segment_name(2)]
        assert [r.lsn for r in wal.scan().records] == [4, 5, 6]
        wal.close()

    def test_invalid_knobs(self, tmp_path):
        with pytest.raises(ValueError):
            ClaimWAL(tmp_path, segment_max_records=0)
        with pytest.raises(ValueError):
            ClaimWAL(tmp_path, sync="sometimes")


def _stopped_service(tmp_path, dataset, claims=0, **kwargs):
    """A started+stopped durable service, returning its store dir."""
    store_dir = tmp_path / "store"
    service = TruthService(
        MajorityVote(),
        dataset,
        config=TDACConfig(seed=3),
        store=store_dir,
        service_config=ServiceConfig(max_wait_ms=1.0, **kwargs),
    )
    service.start()
    if claims:
        service.ingest(fresh_claims(dataset, "seed", claims), wait=True)
    service.stop()
    return store_dir


class TestSnapshotStore:
    def test_checkpoint_files_are_content_addressed(self, tmp_path, dataset):
        store_dir = _stopped_service(tmp_path, dataset, claims=3)
        store = TruthStore(store_dir)
        entries = store.snapshots.entries()
        assert entries  # newest first
        payload, path = store.snapshots.latest_valid()
        stamp = payload["stamp"]
        expected = snapshot_address(
            stamp["dataset_fingerprint"],
            stamp["config_fingerprint"],
            stamp["watermark"],
        )
        assert entries[0].address == expected
        assert expected in path.name

    def test_corrupt_snapshot_falls_back_loudly(self, tmp_path, dataset):
        store_dir = _stopped_service(tmp_path, dataset, claims=3)
        snapshots = SnapshotStore(store_dir / "snapshots")
        newest = snapshots.entries()[0].path
        data = newest.read_bytes()
        assert data.count(b'"watermark": 3') == 1
        # The stamp's watermark, one higher, breaks the header's digest.
        newest.write_bytes(data.replace(b'"watermark": 3', b'"watermark": 4'))
        with pytest.warns(WALCorruptionWarning, match="failed its checksum"):
            fallback, path = snapshots.latest_valid()
        assert path != newest
        assert fallback["stamp"]["watermark"] < 3


@pytest.fixture(scope="module")
def checkpoint_files(tmp_path_factory):
    """``(name, bytes)`` of a stopped service's checkpoints, newest first."""
    dataset = make_synthetic("DS1", n_objects=15, seed=11).dataset
    store_dir = _stopped_service(
        tmp_path_factory.mktemp("checkpoints"), dataset, claims=3
    )
    entries = SnapshotStore(store_dir / "snapshots").entries()
    assert len(entries) >= 2
    return [(e.path.name, e.path.read_bytes()) for e in entries]


def _started(dataset):
    """An in-memory service's first snapshot (no store, stopped)."""
    service = TruthService(MajorityVote(), dataset, config=TDACConfig(seed=3))
    snapshot = service.start()
    service.stop()
    return snapshot


class TestSnapshotFormat:
    """A v3 checkpoint: ``tdac-snapshot/v3 <sha256 of the body>``, then
    the body: one JSON head line (the stamp, the store metadata, the
    dataset's tables and the column lengths) over the claim and truth
    code columns as raw little-endian ``int32`` blocks."""

    def test_file_is_a_header_line_over_the_body(self, checkpoint_files):
        _, data = checkpoint_files[0]
        header, _, body = data.partition(b"\n")
        schema, _, digest = header.decode("ascii").partition(" ")
        assert schema == SNAPSHOT_SCHEMA == "tdac-snapshot/v3"
        assert digest == hashlib.sha256(body).hexdigest()
        head_line, _, blocks = body.partition(b"\n")
        head = json.loads(head_line)
        assert set(head) == {"stamp", "dataset", "columns", "store"}
        assert set(head["stamp"]) == {
            "version", "watermark", "dataset_fingerprint",
            "config_fingerprint",
        }
        assert set(head["store"]) == {
            "min_live_lsn", "next_sequence", "base_algorithm", "config",
        }
        assert set(head["dataset"]) == {
            "format_version", "name", "sources", "objects", "attributes",
            "values",
        }
        n, m = head["columns"]["claims"], head["columns"]["truth"]
        codes = np.frombuffer(blocks, dtype="<i4")
        assert codes.size == 4 * n + 3 * m
        claims = codes[:4 * n].reshape(4, n)
        truth = codes[4 * n:].reshape(3, m)
        decoded = dataset_from_dict(
            {**head["dataset"], "claims": claims, "truth": truth}
        )
        assert decoded.n_claims == n
        assert decoded.fingerprint == head["stamp"]["dataset_fingerprint"]

    @settings(max_examples=60, deadline=None)
    @example(position=0, mask=1)  # the schema
    @example(position=len(SNAPSHOT_SCHEMA), mask=1)  # the separator
    @example(position=len(SNAPSHOT_SCHEMA) + 1, mask=1)  # the digest
    @example(position=len(SNAPSHOT_SCHEMA) + 65, mask=0x24)  # the newline
    @example(position=len(SNAPSHOT_SCHEMA) + 66, mask=1)  # the body
    @given(
        position=st.integers(min_value=0, max_value=10**6),
        mask=st.integers(min_value=1, max_value=255),
    )
    def test_any_flipped_byte_is_refused_and_falls_back(
        self, checkpoint_files, position, mask
    ):
        (newest_name, newest), (older_name, older) = checkpoint_files[:2]
        flipped = bytearray(newest)
        flipped[position % len(flipped)] ^= mask
        with tempfile.TemporaryDirectory() as directory:
            snapshots = SnapshotStore(directory)
            (snapshots.directory / newest_name).write_bytes(bytes(flipped))
            (snapshots.directory / older_name).write_bytes(older)
            with pytest.raises(StoreError):
                snapshots.load(snapshots.directory / newest_name)
            with pytest.warns(WALCorruptionWarning, match="falling back"):
                payload, path = snapshots.latest_valid()
            assert path.name == older_name
            assert (snapshots.directory / newest_name).exists()
        with tempfile.TemporaryDirectory() as directory:
            clean = Path(directory) / older_name
            clean.write_bytes(older)
            assert_same_payload(payload, SnapshotStore(directory).load(clean))

    def test_a_v1_file_is_refused_by_its_schema(self, tmp_path):
        snapshots = SnapshotStore(tmp_path)
        path = tmp_path / "snapshot-0000000001-0123456789abcdef.json"
        v1 = {  # as 1.23.0 wrote it: the served result nests its schema
            "dataset": {"format_version": 1},
            "result": {"schema": "tdac-result/v1", "serving": {}},
            "schema": "tdac-snapshot/v1", "store": {"checksum": "0" * 64},
        }
        path.write_text(json.dumps(v1, sort_keys=True) + "\n")
        with pytest.raises(StoreError, match="'tdac-snapshot/v1'"):
            snapshots.load(path)
        with pytest.warns(WALCorruptionWarning, match="tdac-snapshot/v1"):
            assert snapshots.latest_valid() is None
        assert path.exists()  # refused, never deleted

    def test_a_v2_file_is_refused_by_its_schema(self, tmp_path):
        snapshots = SnapshotStore(tmp_path)
        path = tmp_path / "snapshot-0000000001-0123456789abcdef.json"
        body = json.dumps(  # as 1.24.0 and 1.25.0 wrote it
            {"dataset": {"format_version": 1}, "stamp": {}, "store": {}},
            sort_keys=True,
        ).encode("utf-8")
        digest = hashlib.sha256(body).hexdigest()
        path.write_bytes(f"tdac-snapshot/v2 {digest}\n".encode() + body)
        with pytest.raises(StoreError, match="'tdac-snapshot/v2'"):
            snapshots.load(path)
        with pytest.warns(WALCorruptionWarning, match="tdac-snapshot/v2"):
            assert snapshots.latest_valid() is None
        assert path.exists()  # refused, never deleted

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("duplicate", "claim key twice"),
            ("out_of_range", "object code out of range"),
        ],
    )
    def test_a_bad_code_column_is_refused_by_the_decode(
        self, checkpoint_files, tmp_path, edit, message
    ):
        """A file whose digest holds but whose columns repeat a claim
        key or code past a table loads, and its decode raises."""
        name, data = checkpoint_files[0]
        _, _, body = data.partition(b"\n")
        head_line, _, blocks = body.partition(b"\n")
        n = json.loads(head_line)["columns"]["claims"]
        codes = np.frombuffer(blocks, dtype="<i4").copy()
        claims = codes[:4 * n].reshape(4, n)
        if edit == "duplicate":
            claims[:, 1] = claims[:, 0]
        else:
            claims[1, 0] = len(json.loads(head_line)["dataset"]["objects"])
        body = head_line + b"\n" + codes.tobytes()
        digest = hashlib.sha256(body).hexdigest()
        path = tmp_path / name
        path.write_bytes(f"{SNAPSHOT_SCHEMA} {digest}\n".encode() + body)
        payload = SnapshotStore(tmp_path).load(path)
        with pytest.raises(DataError, match=message):
            dataset_from_dict(payload["dataset"])

    def test_columns_of_another_length_than_the_head_declares_are_refused(
        self, checkpoint_files, tmp_path
    ):
        name, data = checkpoint_files[0]
        _, _, body = data.partition(b"\n")
        head_line, _, blocks = body.partition(b"\n")
        body = head_line + b"\n" + blocks[:-4]  # one truth code short
        digest = hashlib.sha256(body).hexdigest()
        path = tmp_path / name
        path.write_bytes(f"{SNAPSHOT_SCHEMA} {digest}\n".encode() + body)
        with pytest.raises(StoreError, match="bytes of code columns"):
            SnapshotStore(tmp_path).load(path)

    def test_record_serialises_once_and_load_never(
        self, tmp_path, dataset, monkeypatch
    ):
        snapshot = _started(dataset)
        snapshots = SnapshotStore(tmp_path)
        calls = []
        dumps = json.dumps

        def spy(obj, *args, **kwargs):
            calls.append(obj)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", spy)
        path = snapshots.record(
            snapshot, dataset, min_live_lsn=0, next_sequence=0,
            base_algorithm="MajorityVote", config=TDACConfig(seed=3),
        )
        payloads = [c for c in calls if "stamp" in c]
        assert len(payloads) == 1
        # The only other encode is the config's own fingerprint.
        assert all(
            set(c) == set(RESULT_AFFECTING_FIELDS)
            for c in calls if "stamp" not in c
        )
        calls.clear()
        loaded = snapshots.load(path)
        assert calls == []
        head = json.loads(dumps(payloads[0]))
        assert loaded["stamp"] == head["stamp"]
        assert loaded["store"] == head["store"]
        restored = dataset_from_dict(loaded["dataset"])
        assert list(restored.claims.items()) == list(dataset.claims.items())
        assert restored.fingerprint == dataset.fingerprint

    def test_record_fsyncs_the_file_then_the_directory(
        self, tmp_path, dataset, monkeypatch
    ):
        snapshot = _started(dataset)
        snapshots = SnapshotStore(tmp_path / "snapshots")
        fsync = os.fsync
        events = []

        def spy(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            files = sorted(p.name for p in snapshots.directory.iterdir())
            events.append((kind, files))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        path = snapshots.record(
            snapshot, dataset, min_live_lsn=0, next_sequence=0,
            base_algorithm="MajorityVote", config=TDACConfig(seed=3),
        )
        # The temp file is durable before the rename publishes it, and
        # the rename is durable before record returns.
        assert events == [
            ("file", [path.with_suffix(".tmp").name]),
            ("dir", [path.name]),
        ]


def assert_same_payload(loaded: dict, expected: dict):
    """Two loaded checkpoints hold the same head and code columns."""
    assert loaded["stamp"] == expected["stamp"]
    assert loaded["store"] == expected["store"]
    a, b = dict(loaded["dataset"]), dict(expected["dataset"])
    for column in ("claims", "truth"):
        np.testing.assert_array_equal(a.pop(column), b.pop(column))
    assert a == b


def assert_same_slots(restored: Dataset, original: Dataset):
    """Same facts, slot arrays and slot values."""
    a, b = DatasetIndex(restored), DatasetIndex(original)
    assert a.facts == b.facts
    for name in INDEX_ARRAYS:
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )
    assert_same_values(a.slot_values, b.slot_values)


def assert_same_run(restored: Dataset, original: Dataset):
    tdac = TDAC(MajorityVote(), config=TDACConfig(seed=0))
    a, b = tdac.run(restored), tdac.run(original)
    # Prediction dicts compare equal only where a NaN is one object.
    assert dict(a.result.predictions) == dict(b.result.predictions)
    assert dict(a.result.source_trust) == dict(b.result.source_trust)
    assert a.partition.blocks == b.partition.blocks


class TestAdversarialRoundTrip:
    """Claims over every adversarial value (1/1.0/True, -0.0, distinct
    NaN objects, tuples holding them, None, non-ASCII) keep their slots
    and their TD-AC result through a checkpoint and through the WAL."""

    @settings(max_examples=60, deadline=None)
    @given(claim_datasets())
    def test_checkpoint_dataset_codec(self, dataset):
        text = json.dumps(dataset_to_dict(dataset), sort_keys=True)
        restored = dataset_from_dict(json.loads(text))
        assert restored.fingerprint == dataset.fingerprint
        assert_same_slots(restored, dataset)
        assert_same_run(restored, dataset)

    @settings(max_examples=60, deadline=None)
    @given(claim_datasets())
    def test_wal_claim_codec(self, dataset):
        claims = [encode_claim(c) for c in dataset.iter_claims()]
        record = decode_record(encode_record(0, "admit", {"claims": claims}))
        empty = Dataset(
            dataset.sources, dataset.objects, dataset.attributes, {},
            dataset.truth,
        )
        restored = empty.extended(
            decode_claim(c) for c in record.body["claims"]
        )
        assert restored.fingerprint == dataset.fingerprint
        assert_same_slots(restored, dataset)
        assert_same_run(restored, dataset)


class TestTruthStore:
    def test_open_store_passthrough(self, tmp_path):
        store = TruthStore(tmp_path)
        assert open_store(store) is store
        with pytest.raises(StoreError):
            open_store(store, sync="never")

    def test_admit_commit_lifecycle_and_compaction(self, tmp_path, dataset):
        store_dir = tmp_path / "store"
        service = TruthService(
            MajorityVote(),
            dataset,
            config=TDACConfig(seed=3),
            store=TruthStore(store_dir, segment_max_records=2, sync="never"),
            service_config=ServiceConfig(snapshot_every=1, max_wait_ms=1.0),
        )
        service.start()
        for j in range(4):
            service.ingest(fresh_claims(dataset, f"t{j}", 2), wait=True)
        service.stop()
        store = TruthStore(store_dir)
        kinds = store.inspect()["wal"]["records_by_type"]
        assert kinds["admit"] == 4
        assert kinds["commit"] == 4
        outcome = store.compact()
        assert outcome["removed_segments"]  # sealed prefix folded away
        recovery = store.recover()
        assert recovery.batches == []  # everything below the checkpoint
        assert recovery.uncommitted == []

    def test_rejected_batch_writes_abort_record(self, tmp_path, dataset):
        store_dir = tmp_path / "store"
        service = TruthService(
            MajorityVote(),
            dataset,
            config=TDACConfig(seed=3),
            store=store_dir,
            service_config=ServiceConfig(max_wait_ms=1.0),
        )
        service.start()
        good = fresh_claims(dataset, "ok", 2)
        service.ingest(good, wait=True)
        # Two sources claiming different values for one fact violates
        # the accumulated one-truth constraint and fails the batch.
        conflicting = [
            Claim(dataset.sources[0], "obj-x", dataset.attributes[0], "a"),
            Claim(dataset.sources[0], "obj-x", dataset.attributes[0], "b"),
        ]
        ticket = service.ingest(conflicting)
        with pytest.raises(Exception):
            ticket.wait(timeout=10.0)
        service.stop()
        store = TruthStore(store_dir)
        kinds = store.inspect()["wal"]["records_by_type"]
        assert kinds.get("abort", 0) == 1
        recovery = store.recover()
        assert recovery.aborted_claims == 2
        assert recovery.uncommitted == []  # the abort settled the admit

    def test_fresh_start_over_nonempty_store_refused(self, tmp_path, dataset):
        store_dir = _stopped_service(tmp_path, dataset, claims=2)
        service = TruthService(MajorityVote(), dataset, store=store_dir)
        with pytest.raises(StoreError, match="restore"):
            service.start()

    def test_stats_expose_durability_counters(self, tmp_path, dataset):
        store_dir = tmp_path / "store"
        service = TruthService(
            MajorityVote(),
            dataset,
            config=TDACConfig(seed=3),
            store=store_dir,
            service_config=ServiceConfig(max_wait_ms=1.0),
        )
        service.start()
        service.ingest(fresh_claims(dataset, "t", 3), wait=True)
        stats = service.stats["store"]
        assert stats["durable_bytes"] > 0
        assert stats["wal_records"] == 2  # one admit + one commit
        assert stats["snapshots_written"] >= 1
        service.stop()


class TestStoreObservability:
    def test_store_spans_and_counters_land_in_tracer(self, tmp_path, dataset):
        from repro import SpanTracer

        tracer = SpanTracer()
        service = TruthService(
            MajorityVote(),
            dataset,
            config=TDACConfig(seed=3),
            store=tmp_path / "store",
            service_config=ServiceConfig(snapshot_every=1, max_wait_ms=1.0),
            tracer=tracer,
        )
        service.start()
        service.ingest(fresh_claims(dataset, "t", 2), wait=True)
        service.stop()
        span_names = {s.name for s in tracer.spans}
        assert {"store.append", "store.flush"} <= span_names
        assert tracer.counters["store.durable_bytes"] > 0
        assert tracer.counters["store.commits"] == 1
