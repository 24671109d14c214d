"""Tests for the micro-batching :class:`~repro.serving.TruthService`.

The load test hammers one service from several writer and reader
threads, then replays every captured snapshot's watermark offline
through ``TDAC.run`` and demands bit-identity — the serving engine's
core correctness contract.
"""

import threading

import pytest

from repro import TDAC, MajorityVote, SpanTracer, TDACConfig, TruthService
from repro.data import Claim, DataError, Fact
from repro.datasets import make_synthetic
from repro.serving import (
    QueryAnswer,
    ServiceConfig,
    ServiceOverloadedError,
    ServiceStoppedError,
    run_smoke,
    serve_jsonl,
)


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


class TestLifecycle:
    def test_start_publishes_exact_v1(self, dataset):
        service = TruthService(MajorityVote(), dataset)
        snapshot = service.start()
        try:
            assert snapshot.version == 1
            assert snapshot.watermark == 0
            assert snapshot.exact
            assert snapshot.dataset_fingerprint == dataset.fingerprint
            assert snapshot.config_fingerprint == service.config.fingerprint()
        finally:
            service.stop()

    def test_reads_before_start_raise(self, dataset):
        service = TruthService(MajorityVote(), dataset)
        with pytest.raises(ServiceStoppedError):
            service.snapshot()
        with pytest.raises(ServiceStoppedError):
            service.ingest(fresh_claims(dataset, "x", 1))

    def test_ingest_after_stop_raises(self, dataset):
        with TruthService(MajorityVote(), dataset) as service:
            pass
        with pytest.raises(ServiceStoppedError):
            service.ingest(fresh_claims(dataset, "x", 1))

    def test_empty_ingest_rejected(self, dataset):
        with TruthService(MajorityVote(), dataset) as service:
            with pytest.raises(ValueError):
                service.ingest([])

    def test_invalid_knobs_rejected(self, dataset):
        with pytest.raises(ValueError):
            TruthService(
                MajorityVote(), dataset,
                service_config=ServiceConfig(refit="eventually"),
            )
        with pytest.raises(ValueError):
            TruthService(
                MajorityVote(), dataset,
                service_config=ServiceConfig(max_batch_size=0),
            )
        with pytest.raises(ValueError):
            TruthService(
                MajorityVote(), dataset,
                service_config=ServiceConfig(queue_capacity=0),
            )


class TestBitIdentity:
    def test_snapshot_matches_offline_run(self, dataset):
        config = TDACConfig(seed=2)
        with TruthService(
            MajorityVote(), dataset, config=config,
            service_config=ServiceConfig(max_wait_ms=1.0),
        ) as service:
            service.ingest(fresh_claims(dataset, "a", 3), wait=True)
            ticket = service.ingest(fresh_claims(dataset, "b", 2))
            snapshot = ticket.wait(timeout=30)
            replayed = service.replay_dataset(snapshot.watermark)
        offline = TDAC(MajorityVote(), config=config).run(replayed)
        assert dict(snapshot.predictions) == dict(offline.result.predictions)
        assert dict(snapshot.source_trust) == dict(
            offline.result.source_trust
        )
        assert snapshot.partition == offline.partition
        assert snapshot.silhouette_by_k == offline.silhouette_by_k

    def test_query_reflects_applied_claim(self, dataset):
        with TruthService(
            MajorityVote(), dataset,
            service_config=ServiceConfig(max_wait_ms=1.0),
        ) as service:
            claim = fresh_claims(dataset, "q", 1)[0]
            service.ingest([claim], wait=True)
            answer = service.query(claim.object, claim.attribute)
            assert isinstance(answer, QueryAnswer)
            assert answer.found and answer.value == claim.value
            missing = service.query("no-such-object", claim.attribute)
            assert not missing.found and missing.value is None

    def test_replay_dataset_bounds(self, dataset):
        with TruthService(MajorityVote(), dataset) as service:
            assert service.replay_dataset(0) is dataset
            with pytest.raises(ValueError):
                service.replay_dataset(5)


class TestConcurrentLoad:
    N_WRITERS = 4
    BATCHES_PER_WRITER = 3

    def test_hammer_bit_identity_and_monotone_versions(self, dataset):
        config = TDACConfig(seed=1)
        tracer = SpanTracer()
        captured = []
        captured_lock = threading.Lock()
        errors = []

        def writer(tag):
            try:
                service_claims = [
                    fresh_claims(dataset, f"{tag}-{b}", 2)
                    for b in range(self.BATCHES_PER_WRITER)
                ]
                for batch in service_claims:
                    ticket = service.ingest(batch)
                    snapshot = ticket.wait(timeout=60)
                    with captured_lock:
                        captured.append(snapshot)
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        def reader(stop_event):
            try:
                last_version = 0
                while not stop_event.is_set():
                    snapshot = service.snapshot()
                    assert snapshot.version >= last_version
                    last_version = snapshot.version
                    service.query(dataset.objects[0], dataset.attributes[0])
            except Exception as exc:
                errors.append(exc)

        with TruthService(
            MajorityVote(),
            dataset,
            config=config,
            service_config=ServiceConfig(max_batch_size=8, max_wait_ms=5.0),
            tracer=tracer,
        ) as service:
            stop_event = threading.Event()
            readers = [
                threading.Thread(target=reader, args=(stop_event,))
                for _ in range(2)
            ]
            writers = [
                threading.Thread(target=writer, args=(w,))
                for w in range(self.N_WRITERS)
            ]
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join(timeout=120)
            stop_event.set()
            for t in readers:
                t.join(timeout=10)
            assert not errors, errors
            assert service.drain(timeout=30)
            final = service.snapshot()
            replays = {
                snapshot.watermark: service.replay_dataset(snapshot.watermark)
                for snapshot in captured + [final]
            }

        total = self.N_WRITERS * self.BATCHES_PER_WRITER * 2
        assert final.watermark == total

        # Every captured snapshot is bit-identical to the offline
        # pipeline over exactly the claims its watermark covers.
        for snapshot in captured + [final]:
            offline = TDAC(MajorityVote(), config=config).run(
                replays[snapshot.watermark]
            )
            assert dict(snapshot.predictions) == dict(
                offline.result.predictions
            )
            assert dict(snapshot.source_trust) == dict(
                offline.result.source_trust
            )
            assert snapshot.partition == offline.partition
            assert snapshot.exact

        # Published versions are strictly monotone in watermark order.
        # (Tickets coalesced into one micro-batch share a snapshot, so
        # dedupe by version first.)
        ordered = sorted(
            {s.version: s for s in captured}.values(),
            key=lambda s: s.version,
        )
        for earlier, later in zip(ordered, ordered[1:]):
            assert later.version > earlier.version
            assert later.watermark > earlier.watermark

        # The serving layer showed up in the trace.
        span_names = {span.name for span in tracer.spans}
        assert "serve.batch" in span_names
        assert "serve.refit" in span_names
        assert tracer.counters["serve.ingest"] == total // 2
        assert tracer.counters["serve.ingest.claims"] == total
        assert tracer.counters["serve.batch"] >= 1
        assert "serve.queue.depth" in tracer.gauges
        assert "serve.batch.occupancy" in tracer.gauges


class TestBackpressure:
    def test_overload_rejects_with_retry_after(self, dataset):
        service = TruthService(
            MajorityVote(), dataset,
            service_config=ServiceConfig(queue_capacity=3, max_wait_ms=0.0),
        )
        # Fill the admission ledger without a worker draining it.
        with service._cond:
            service._started = True
        claims = fresh_claims(dataset, "bp", 3)
        service.ingest(claims)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            service.ingest(fresh_claims(dataset, "bp2", 1))
        error = excinfo.value
        assert error.pending_claims == 3
        assert error.capacity == 3
        assert error.retry_after_seconds > 0
        assert service.stats["rejected_claims"] == 1

    def test_overload_counts_in_tracer(self, dataset):
        tracer = SpanTracer()
        service = TruthService(
            MajorityVote(), dataset,
            service_config=ServiceConfig(queue_capacity=1), tracer=tracer,
        )
        with service._cond:
            service._started = True
        service.ingest(fresh_claims(dataset, "t", 1))
        with pytest.raises(ServiceOverloadedError):
            service.ingest(fresh_claims(dataset, "t2", 1))
        assert tracer.counters["serve.ingest.rejected"] == 1


class TestRefitModes:
    """Every batch takes the delta path; ``refit`` is a deprecated no-op."""

    def assert_is_offline_run(self, service, snapshot):
        offline = TDAC(
            MajorityVote(), config=service.config
        ).run(service.replay_dataset(snapshot.watermark))
        assert dict(snapshot.predictions) == dict(
            offline.result.predictions
        )
        assert dict(snapshot.source_trust) == dict(
            offline.result.source_trust
        )
        assert snapshot.partition == offline.partition
        assert dict(snapshot.silhouette_by_k) == dict(
            offline.silhouette_by_k
        )

    def test_incremental_mode_publishes_exact_snapshots(self, dataset):
        # "incremental" is the default, accepted without a warning.
        assert ServiceConfig().refit == "incremental"
        with TruthService(
            MajorityVote(), dataset,
            service_config=ServiceConfig(refit="incremental", max_wait_ms=1.0),
        ) as service:
            claim = fresh_claims(dataset, "inc", 1)[0]
            service.ingest([claim], wait=True, timeout=60)
            snapshot = service.snapshot()
            assert snapshot.exact
            assert snapshot.version == 2
            assert service.stats["refits_incremental"] == 1
            assert "refits_full" not in service.stats
            engine = service.stats["engine"]
            assert engine["full_fits"] == 1
            assert engine["delta_updates"] == 1
            assert service.query(claim.object, claim.attribute).value == (
                claim.value
            )
            # The delta refit publishes the certified sweep, not an
            # approximation: silhouettes are populated and the whole
            # snapshot matches the offline pipeline at its watermark.
            self.assert_is_offline_run(service, snapshot)

    def test_full_mode_is_a_deprecated_no_op(self, dataset):
        with pytest.warns(DeprecationWarning, match="refit") as caught:
            config = ServiceConfig(refit="full", max_wait_ms=1.0)
        assert len(caught) == 1
        with TruthService(
            MajorityVote(), dataset, service_config=config
        ) as service:
            service.ingest(fresh_claims(dataset, "f", 1), wait=True)
            service.ingest(fresh_claims(dataset, "g", 2), wait=True)
            snapshot = service.snapshot()
            assert snapshot.exact
            assert service.stats["refits_incremental"] == 2
            assert service.stats["engine"]["full_fits"] == 1
            self.assert_is_offline_run(service, snapshot)


class TestFailureIsolation:
    def test_conflicting_batch_fails_ticket_not_service(self, dataset):
        with TruthService(
            MajorityVote(), dataset,
            service_config=ServiceConfig(max_wait_ms=1.0),
        ) as service:
            before = service.snapshot()
            # Re-assert an existing claim with a different value: the
            # one-truth constraint rejects the batch.
            source, obj, attribute = next(iter(dataset.claims))
            bad = Claim(source, obj, attribute, "contradiction")
            ticket = service.ingest([bad])
            with pytest.raises(DataError):
                ticket.wait(timeout=60)
            # The service survived and still applies good batches.
            good = service.ingest(
                fresh_claims(dataset, "ok", 1), wait=True, timeout=60
            )
            after = good.wait()
            assert after.version == before.version + 1
            assert after.watermark == 1  # the bad claim was never applied
            assert service.stats["batch_errors"] == 1


@pytest.fixture
def held_batches(monkeypatch):
    """Hold every batch of ``service`` inside ``_apply`` until released.

    Call the fixture with the started service; ``release()`` lets the
    held batch (and every later one) through.
    """
    gate = threading.Event()

    def hold(service):
        apply = service._apply

        def held(claims):
            gate.wait(30)
            return apply(claims)

        monkeypatch.setattr(service, "_apply", held)
        return gate.set

    yield hold
    gate.set()


class TestTicketFuture:
    """A ticket is a ``concurrent.futures.Future`` the batcher settles."""

    def test_a_raising_callback_does_not_stop_the_batcher(
        self, dataset, held_batches, caplog
    ):
        with TruthService(
            MajorityVote(), dataset,
            service_config=ServiceConfig(max_wait_ms=1.0),
        ) as service:
            release = held_batches(service)
            ticket = service.ingest(fresh_claims(dataset, "cb", 1))

            def boom():
                raise RuntimeError("callback failure")

            ticket.add_done_callback(boom)
            later = []
            ticket.add_done_callback(lambda: later.append(ticket.done))
            release()
            assert ticket.wait(timeout=30).watermark == 1
            nxt = service.ingest(fresh_claims(dataset, "after", 1))
            assert nxt.wait(timeout=10).watermark == 2
            assert later == [True]
            assert service.stats["batch_errors"] == 0
        assert "callback failure" in caplog.text

    def test_callbacks_see_the_result_once_on_the_settling_thread(
        self, dataset, held_batches
    ):
        with TruthService(
            MajorityVote(), dataset,
            service_config=ServiceConfig(max_wait_ms=1.0),
        ) as service:
            release = held_batches(service)
            ticket = service.ingest(fresh_claims(dataset, "once", 1))
            seen = []
            ticket.add_done_callback(
                lambda: seen.append(
                    (threading.current_thread().name, ticket.wait(0).version)
                )
            )
            release()
            ticket.wait(timeout=30)
            # The batcher settles tickets in order: once the next one
            # resolves, every callback of this one has run.
            service.ingest(fresh_claims(dataset, "next", 1), wait=True)
            assert seen == [("tdac-truth-service", 2)]
            # Added after settling: runs at once, on the caller's thread.
            late = []
            ticket.add_done_callback(
                lambda: late.append(threading.current_thread().name)
            )
            assert late == [threading.current_thread().name]
            assert seen == [("tdac-truth-service", 2)]

    def test_wait_times_out_and_cancel_is_refused(
        self, dataset, held_batches
    ):
        with TruthService(
            MajorityVote(), dataset,
            service_config=ServiceConfig(max_wait_ms=1.0),
        ) as service:
            release = held_batches(service)
            ticket = service.ingest(fresh_claims(dataset, "held", 1))
            with pytest.raises(TimeoutError) as info:
                ticket.wait(timeout=0.01)
            assert info.type is TimeoutError
            assert not ticket.done
            # The WAL may hold the batch: no caller can drop it.
            assert ticket.future.cancel() is False
            release()
            assert ticket.wait(timeout=30).watermark == 1
            assert ticket.future.result() is ticket.wait()


class TestResentNoneClaim:
    def test_a_batch_resending_a_stored_none_claim_applies(self, dataset):
        # The stored None is a duplicate, not a fresh claim: counting
        # it again made the delta compile reject the whole batch.
        s0, s1 = dataset.sources[:2]
        attribute = dataset.attributes[0]
        stored = Claim(s0, "new-o", attribute, None)
        config = TDACConfig(seed=2)
        with TruthService(
            MajorityVote(), dataset, config=config,
            service_config=ServiceConfig(max_wait_ms=1.0),
        ) as service:
            service.ingest([stored], wait=True, timeout=60)
            ticket = service.ingest([stored, Claim(s1, "new-o", attribute, 5)])
            snapshot = ticket.wait(timeout=60)
            assert service.stats["batch_errors"] == 0
            replayed = service.replay_dataset(snapshot.watermark)
            assert replayed.n_claims == dataset.n_claims + 2
            offline = TDAC(MajorityVote(), config=config).run(replayed)
            assert dict(snapshot.predictions) == dict(
                offline.result.predictions
            )
            assert Fact("new-o", attribute) in snapshot.predictions


class TestSnapshotSerialization:
    def test_to_dict_carries_serving_metadata(self, dataset):
        from repro.core import RESULT_SCHEMA

        with TruthService(
            MajorityVote(), dataset,
            service_config=ServiceConfig(max_wait_ms=1.0),
        ) as service:
            service.ingest(fresh_claims(dataset, "s", 1), wait=True)
            payload = service.snapshot().to_dict()
        assert payload["schema"] == RESULT_SCHEMA
        serving = payload["serving"]
        assert serving["version"] == 2
        assert serving["watermark"] == 1
        assert serving["exact"] is True
        assert serving["dataset_fingerprint"]
        assert serving["config_fingerprint"]


class TestFrontend:
    def test_jsonl_round_trip(self, dataset):
        import io
        import json

        requests = [
            '{"op": "query", "object": "%s", "attribute": "%s"}'
            % (dataset.objects[0], dataset.attributes[0]),
            '{"op": "ingest", "claims": [{"source": "%s", "object": "o-new",'
            ' "attribute": "%s", "value": "nv"}]}'
            % (dataset.sources[0], dataset.attributes[0]),
            '{"op": "snapshot"}',
            '{"op": "stats"}',
            "not json",
            '{"op": "bogus"}',
            '{"op": "ingest", "claims": []}',
        ]
        out = io.StringIO()
        with TruthService(
            MajorityVote(), dataset,
            service_config=ServiceConfig(max_wait_ms=1.0),
        ) as service:
            code = serve_jsonl(service, requests, out)
        assert code == 0
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(responses) == len(requests)
        query, ingest, snapshot, stats, bad, bogus, empty = responses
        assert query["ok"] and query["found"]
        assert ingest["ok"] and ingest["version"] == 2
        assert snapshot["snapshot"]["serving"]["watermark"] == 1
        assert stats["stats"]["applied_claims"] == 1
        assert not bad["ok"] and not bogus["ok"] and not empty["ok"]

    def test_run_smoke_passes(self):
        import io
        import json

        out = io.StringIO()
        assert run_smoke(out=out) == 0
        payload = json.loads(out.getvalue())
        assert payload["ok"]
        assert all(payload["checks"].values())
