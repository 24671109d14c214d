"""Crash-recovery tests: kill the service, restore, demand bit-identity.

The contract under test: a service restored from its store directory
serves exactly the state an uninterrupted run over the same claim
prefix would — predictions, trust and partition compared value-for-value
against an offline ``TDAC.run`` on the replayed dataset.  Corrupted
logs (torn tail, flipped bytes) recover to the last valid record with a
loud :class:`WALCorruptionWarning`, never a silent interior skip.
"""

import math
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro import MajorityVote, SpanTracer, TDAC, TDACConfig, TruthService
from repro.serving import ServiceConfig
from repro.core import extend_dataset
from repro.data import Claim, Dataset, Fact
from repro.datasets import make_synthetic
from repro.store import (
    SnapshotStore,
    StoreError,
    TruthStore,
    WALCorruptionWarning,
    decode_claim,
)

CONFIG = TDACConfig(seed=3)


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


def admitted_claims(store_dir):
    """Every durably admitted claim, in admission (offset) order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WALCorruptionWarning)
        scan = TruthStore(store_dir).wal.scan()
    admits = sorted(
        (
            (int(r.body["offset"]), r.body["claims"])
            for r in scan.records
            if r.type == "admit"
        )
    )
    return [decode_claim(c) for _, payload in admits for c in payload]


def assert_bit_identical(service, dataset, claims):
    """The served snapshot equals an offline TDAC.run on the prefix."""
    snapshot = service.snapshot()
    assert snapshot.watermark == len(claims)
    offline_dataset = (
        dataset if not claims else extend_dataset(dataset, list(claims))
    )
    assert (
        service.replay_dataset(snapshot.watermark).fingerprint
        == offline_dataset.fingerprint
    )
    offline = TDAC(MajorityVote(), config=CONFIG).run(offline_dataset)
    assert dict(snapshot.predictions) == dict(offline.result.predictions)
    assert dict(snapshot.source_trust) == dict(offline.result.source_trust)
    assert snapshot.partition.blocks == offline.partition.blocks


class TestCleanRestore:
    def test_restore_after_clean_stop_is_bit_identical(
        self, tmp_path, dataset
    ):
        store_dir = tmp_path / "store"
        applied = []
        service = TruthService(
            MajorityVote(), dataset, config=CONFIG,
            store=store_dir,
            service_config=ServiceConfig(max_wait_ms=1.0),
        )
        service.start()
        for j in range(3):
            batch = fresh_claims(dataset, f"c{j}", 3)
            service.ingest(batch, wait=True)
            applied.extend(batch)
        live = service.snapshot()
        service.stop()
        tracer = SpanTracer()
        restored = TruthService.restore(store_dir, tracer=tracer)
        try:
            snapshot = restored.snapshot()
            assert snapshot.version == live.version
            assert snapshot.watermark == live.watermark
            assert_bit_identical(restored, dataset, applied)
            # A clean stop checkpoints, so nothing needed replaying.
            assert tracer.counters["store.replayed_claims"] == 0
        finally:
            restored.stop()

    def test_restored_service_keeps_serving_durably(self, tmp_path, dataset):
        store_dir = tmp_path / "store"
        service = TruthService(
            MajorityVote(), dataset, config=CONFIG,
            store=store_dir,
            service_config=ServiceConfig(max_wait_ms=1.0),
        )
        service.start()
        first = fresh_claims(dataset, "a", 4)
        service.ingest(first, wait=True)
        service.stop()
        restored = TruthService.restore(store_dir)
        try:
            second = fresh_claims(dataset, "b", 3)
            snapshot = restored.ingest(second, wait=True).wait()
            assert snapshot.watermark == len(first) + len(second)
            assert_bit_identical(restored, dataset, first + second)
        finally:
            restored.stop()

    def test_restore_reports_replayed_claims(self, tmp_path, dataset):
        store_dir = tmp_path / "store"
        service = TruthService(
            MajorityVote(), dataset, config=CONFIG, store=store_dir,
            service_config=ServiceConfig(
                snapshot_every=100, max_wait_ms=1.0
            ),
        )
        service.start()
        service.ingest(fresh_claims(dataset, "a", 3), wait=True)
        service.ingest(fresh_claims(dataset, "b", 2), wait=True)
        service.stop(checkpoint=False)  # leave the WAL tail unfolded
        tracer = SpanTracer()
        restored = TruthService.restore(store_dir, tracer=tracer)
        try:
            assert tracer.counters["store.replayed_claims"] == 5
            assert {"store.recover"} <= {s.name for s in tracer.spans}
        finally:
            restored.stop()


class SlowMajorityVote(MajorityVote):
    """MajorityVote whose solves sleep once ``slow`` is set."""

    def __init__(self):
        super().__init__()
        self.slow = threading.Event()

    def _solve(self, index):
        if self.slow.is_set():
            time.sleep(0.4)
        return super()._solve(index)


class TestStop:
    def test_timed_out_stop_keeps_the_store_open_for_a_later_stop(
        self, tmp_path, dataset
    ):
        store_dir = tmp_path / "store"
        base = SlowMajorityVote()
        service = TruthService(
            base, dataset, config=CONFIG, store=store_dir,
            service_config=ServiceConfig(max_wait_ms=1.0),
        )
        service.start()
        base.slow.set()
        ticket = service.ingest(fresh_claims(dataset, "s", 2))
        with pytest.raises(TimeoutError):
            service.stop(timeout=0.05)
        # The batch still lands, and nothing was closed under it.
        applied = ticket.wait(30.0)
        assert applied.watermark == 2
        service.stop()
        assert not service._thread.is_alive()
        assert service.store.wal._handle is None
        latest = service.store.snapshots.entries()[0]
        assert latest.version == service.snapshot().version == applied.version
        assert len(service.store.wal.segments()) == 1


def disk_full(*args, **kwargs):
    raise OSError("disk full")


class TestPostRestoreCheckpoint:
    """Restore returns after its fit; the batcher cuts the checkpoint."""

    def crashed_store(self, tmp_path, dataset):
        """A store with a two-batch committed WAL tail past its checkpoint."""
        store_dir = tmp_path / "store"
        service = TruthService(
            MajorityVote(), dataset, config=CONFIG, store=store_dir,
            service_config=ServiceConfig(
                snapshot_every=100, max_wait_ms=1.0
            ),
        )
        service.start()
        service.ingest(fresh_claims(dataset, "a", 3), wait=True)
        service.ingest(fresh_claims(dataset, "b", 2), wait=True)
        service.stop(checkpoint=False)
        return store_dir

    def test_the_batcher_cuts_the_checkpoint_before_any_batch(
        self, tmp_path, dataset, monkeypatch
    ):
        store_dir = self.crashed_store(tmp_path, dataset)
        writers = []
        record = SnapshotStore.record

        def spy(self, *args, **kwargs):
            writers.append(threading.current_thread())
            return record(self, *args, **kwargs)

        monkeypatch.setattr(SnapshotStore, "record", spy)
        restored = TruthService.restore(store_dir)
        calling = threading.current_thread()
        try:
            assert calling not in writers
            version = restored.snapshot().version
        finally:
            restored.stop(checkpoint=False)
        assert writers and calling not in writers
        latest = TruthStore(store_dir).snapshots.entries()[0]
        assert latest.version == version

    def test_a_checkpoint_call_waits_for_the_batchers(
        self, tmp_path, dataset, monkeypatch
    ):
        # Both would write the same temp file: the later rename fails.
        store_dir = self.crashed_store(tmp_path, dataset)
        record = SnapshotStore.record
        active, overlaps = [], []

        def slow(self, *args, **kwargs):
            active.append(None)
            overlaps.append(len(active))
            time.sleep(0.1)
            try:
                return record(self, *args, **kwargs)
            finally:
                active.pop()

        monkeypatch.setattr(SnapshotStore, "record", slow)
        restored = TruthService.restore(store_dir)
        try:
            restored.checkpoint()
        finally:
            restored.stop(checkpoint=False)
        assert overlaps == [1, 1]

    def test_restore_sorts_the_fingerprint_pieces_once(
        self, tmp_path, dataset, monkeypatch
    ):
        store_dir = self.crashed_store(tmp_path, dataset)
        sorted_pieces = Dataset._sorted_pieces
        calls = []

        def spy(self):
            calls.append(self)
            return sorted_pieces(self)

        monkeypatch.setattr(Dataset, "_sorted_pieces", spy)
        tracer = SpanTracer()
        restored = TruthService.restore(store_dir, tracer=tracer)
        restored.stop(checkpoint=False)
        assert tracer.counters["store.replayed_claims"] == 5
        assert len(calls) == 1


class TestFailedCheckpoint:
    def test_a_failed_checkpoint_keeps_the_batcher_serving(
        self, tmp_path, dataset, monkeypatch
    ):
        tracer = SpanTracer()
        service = TruthService(
            MajorityVote(), dataset, config=CONFIG,
            store=tmp_path / "store", tracer=tracer,
            service_config=ServiceConfig(snapshot_every=2, max_wait_ms=1.0),
        )
        service.start()
        monkeypatch.setattr(TruthStore, "record_snapshot", disk_full)
        try:
            for j in range(5):
                ticket = service.ingest(fresh_claims(dataset, f"f{j}", 1))
                snapshot = ticket.wait(timeout=30)
            assert snapshot.watermark == 5
            # Tried after batches 2 and 4; each failure waits a cadence.
            assert service.stats["checkpoint_errors"] == 2
            assert tracer.counters["serve.checkpoint.errors"] == 2
        finally:
            monkeypatch.undo()
            service.stop()
        restored = TruthService.restore(tmp_path / "store")
        try:
            assert restored.snapshot().watermark == 5
        finally:
            restored.stop()


class TestFailedRestore:
    def test_failed_restore_stops_the_batcher_and_closes_the_store(
        self, tmp_path, dataset, monkeypatch
    ):
        store_dir = tmp_path / "store"
        service = TruthService(
            MajorityVote(), dataset, config=CONFIG, store=store_dir,
            service_config=ServiceConfig(max_wait_ms=1.0),
        )
        service.start()
        service.ingest(fresh_claims(dataset, "a", 3), wait=True)
        service.stop(checkpoint=False)
        # Two admits with no outcome: restore settles them after its
        # fit.  The first commit record opens the WAL for writing; the
        # second fails.
        store = TruthStore(store_dir)
        store.append_admit(3, fresh_claims(dataset, "b", 2))
        store.append_admit(5, fresh_claims(dataset, "c", 2))
        store.close()
        append_commit = TruthStore.append_commit
        commits = []

        def second_commit_fails(self, *args, **kwargs):
            commits.append(args)
            if len(commits) == 2:
                raise OSError("disk full")
            return append_commit(self, *args, **kwargs)

        monkeypatch.setattr(TruthStore, "append_commit", second_commit_fails)
        before = set(threading.enumerate())
        with pytest.raises(OSError, match="disk full"):
            TruthService.restore(store)
        leaked = [
            t for t in set(threading.enumerate()) - before
            if t.name == "tdac-truth-service" and t.is_alive()
        ]
        assert leaked == []
        assert store.wal._handle is None


class TestValuesAcrossARestore:
    def test_a_value_json_cannot_hold_fails_the_checkpoint_loudly(
        self, tmp_path, dataset
    ):
        # A checkpoint that stringified it would restore a different
        # value, served as exact.
        sources, attribute = dataset.sources, dataset.attributes[0]
        frozen = dataset.extended([
            Claim(sources[0], "o-frozen", attribute, frozenset({1})),
            Claim(sources[1], "o-frozen", attribute, frozenset({1})),
            Claim(sources[2], "o-frozen", attribute, 5),
        ])
        store_dir = tmp_path / "store"
        service = TruthService(
            MajorityVote(), frozen, config=CONFIG, store=store_dir,
            service_config=ServiceConfig(max_wait_ms=1.0),
        )
        before = set(threading.enumerate())
        with pytest.raises(StoreError, match="frozenset"):
            service.start()
        leaked = [
            t for t in set(threading.enumerate()) - before
            if t.name == "tdac-truth-service" and t.is_alive()
        ]
        assert leaked == []
        assert service.store.wal._handle is None
        assert SnapshotStore(store_dir / "snapshots").is_empty()

    def test_distinct_nan_claims_share_one_slot_across_a_restore(
        self, tmp_path, dataset
    ):
        sources, attribute = dataset.sources, dataset.attributes[0]
        batch = [
            Claim(sources[0], "o-nan", attribute, float("nan")),
            Claim(sources[1], "o-nan", attribute, float("nan")),
            Claim(sources[2], "o-nan", attribute, 7),
        ]
        store_dir = tmp_path / "store"
        service = TruthService(
            MajorityVote(), dataset, config=CONFIG, store=store_dir,
            service_config=ServiceConfig(snapshot_every=1000, max_wait_ms=1.0),
        )
        service.start()
        service.ingest(batch, wait=True)
        live = service.snapshot()
        service.stop(checkpoint=False)
        restored = TruthService.restore(store_dir)
        try:
            again = restored.snapshot()
            assert_bit_identical(restored, dataset, batch)
        finally:
            restored.stop(checkpoint=False)
        fact = Fact("o-nan", attribute)
        for snapshot in (live, again):
            assert snapshot.watermark == 3
            assert math.isnan(snapshot.predictions[fact])
            assert snapshot.result.confidence[fact] == pytest.approx(2 / 3)
        assert live.dataset_fingerprint == again.dataset_fingerprint
        # Equal because both hold the dataset's one NaN object.
        assert dict(live.predictions) == dict(again.predictions)
        assert dict(live.source_trust) == dict(again.source_trust)


CRASH_CHILD = """\
import os, sys
from repro import MajorityVote, TDACConfig, TruthService
from repro.serving import ServiceConfig
from repro.data import Claim
from repro.datasets import make_synthetic

store_dir = sys.argv[1]
dataset = make_synthetic("DS1", n_objects=15, seed=11).dataset
source, attribute = dataset.sources[0], dataset.attributes[0]

def claims(tag, n):
    return [
        Claim(source, f"obj-{tag}-{i}", attribute, f"v-{tag}-{i}")
        for i in range(n)
    ]

service = TruthService(
    MajorityVote(), dataset, config=TDACConfig(seed=3),
    store=store_dir,
    service_config=ServiceConfig(snapshot_every=2, max_wait_ms=1.0),
)
service.start()
for j in range(3):
    service.ingest(claims(f"w{j}", 3), wait=True)
# Admitted (durably acked) but not waited on: the crash races their
# application, exercising admit-without-commit recovery.
service.ingest(claims("x0", 3))
service.ingest(claims("x1", 2))
os._exit(7)  # hard crash: no stop(), no final checkpoint
"""


class TestCrashRecovery:
    def test_restore_refuses_a_corpus_with_a_hole(self, tmp_path, dataset):
        """Compaction follows the newest checkpoint; if that one is then
        corrupt, the fallback checkpoint's WAL tail has lost batch t4.
        Replaying t5 on top of t0-t3 would serve a state that is no
        acked prefix, so restore must refuse."""
        store_dir = tmp_path / "store"
        store = TruthStore(store_dir, segment_max_records=2, sync="never")
        service = TruthService(
            MajorityVote(), dataset, config=CONFIG, store=store,
            service_config=ServiceConfig(snapshot_every=2, max_wait_ms=1.0),
        )
        service.start()
        for j in range(6):
            service.ingest(fresh_claims(dataset, f"t{j}", 2), wait=True)
        service.stop()
        store.compact()
        newest = store.snapshots.entries()[0].path
        data = bytearray(newest.read_bytes())
        data[-2] ^= 0x01  # one body byte: the digest check fails
        newest.write_bytes(bytes(data))
        with pytest.warns(WALCorruptionWarning, match="falling back"):
            with pytest.raises(StoreError, match="does not continue"):
                TruthService.restore(store_dir)

    def test_kill_mid_ingest_restores_bit_identically(
        self, tmp_path, dataset
    ):
        store_dir = tmp_path / "store"
        child = tmp_path / "crash_child.py"
        child.write_text(CRASH_CHILD)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(child), str(store_dir)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 7, proc.stderr
        admitted = admitted_claims(store_dir)
        assert len(admitted) == 14  # every acked admission survived
        restored = TruthService.restore(store_dir)
        try:
            assert_bit_identical(restored, dataset, admitted)
        finally:
            restored.stop()

    def test_truncated_wal_tail_recovers_loudly(self, tmp_path, dataset):
        store_dir = tmp_path / "store"
        service = TruthService(
            MajorityVote(), dataset, config=CONFIG, store=store_dir,
            service_config=ServiceConfig(
                snapshot_every=100, max_wait_ms=1.0
            ),
        )
        service.start()
        for j in range(3):
            service.ingest(fresh_claims(dataset, f"c{j}", 3), wait=True)
        service.stop(checkpoint=False)
        admitted = admitted_claims(store_dir)
        segment = sorted((store_dir / "wal").glob("wal-*.jsonl"))[-1]
        raw = segment.read_bytes()
        segment.write_bytes(raw[:-9])  # tear the final commit record
        with pytest.warns(WALCorruptionWarning, match="torn tail"):
            restored = TruthService.restore(store_dir)
        try:
            # The torn commit's admit record is intact, so the batch is
            # re-applied as an unsettled admission: no acked claim lost.
            assert_bit_identical(restored, dataset, admitted)
        finally:
            restored.stop()

    def test_bad_checksum_recovers_to_last_valid_offset(
        self, tmp_path, dataset
    ):
        store_dir = tmp_path / "store"
        service = TruthService(
            MajorityVote(), dataset, config=CONFIG, store=store_dir,
            service_config=ServiceConfig(
                snapshot_every=100, max_wait_ms=1.0
            ),
        )
        service.start()
        batches = [fresh_claims(dataset, f"c{j}", 3) for j in range(3)]
        for batch in batches:
            service.ingest(batch, wait=True)
        service.stop(checkpoint=False)
        segment = sorted((store_dir / "wal").glob("wal-*.jsonl"))[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        # Records: admit0 commit0 admit1 commit1 admit2 commit2 — flip a
        # byte inside commit1 so its checksum fails.
        lines[3] = lines[3].replace(b'"type":"commit"', b'"type":"cOmmit"')
        segment.write_bytes(b"".join(lines))
        with pytest.warns(WALCorruptionWarning, match="corrupt record"):
            restored = TruthService.restore(store_dir)
        try:
            # Valid prefix: batch 0 committed, batch 1 admitted (its
            # commit is the corrupt record) and re-applied on restore.
            # Batch 2 sits *after* the corruption: dropped, but loudly —
            # the warning above is mandatory, and the replay never
            # skipped over the hole to reach it.
            assert_bit_identical(restored, dataset, batches[0] + batches[1])
        finally:
            restored.stop()
