"""Tests for :class:`~repro.serving.tenancy.TenantRegistry`.

Multi-tenancy multiplexes named tenants over shared engines keyed by
(dataset fingerprint, config fingerprint).  The contract: same-key
tenants share one running :class:`TruthService` (their claims interleave
into one exact view), distinct keys get isolated engines and durable
namespaces that resume across registries, per-tenant quotas bound
admission independently, and the front-ends dispatch on a request's
``tenant`` field.
"""

import json
import time

import pytest

from repro import TDAC, MajorityVote, SpanTracer, TDACConfig
from repro.data import Claim, DataError
from repro.datasets import make_synthetic
from repro.serving import (
    ServiceConfig,
    ServiceOverloadedError,
    TenantHandle,
    TenantQuotaError,
    TenantRegistry,
    TruthService,
    TruthSnapshot,
    UnknownTenantError,
    handle_request,
)
from repro.store import StoreError
from tests.test_store_recovery import SlowMajorityVote

CONFIG = TDACConfig(seed=13)
FAST = ServiceConfig(max_wait_ms=1.0)


@pytest.fixture
def dataset():
    return make_synthetic("DS1", n_objects=12, seed=13).dataset


@pytest.fixture
def other_dataset():
    return make_synthetic("DS2", n_objects=12, seed=14).dataset


def fresh_claims(dataset, tag, n):
    attribute = dataset.attributes[0]
    return [
        Claim(dataset.sources[i % len(dataset.sources)],
              f"obj-{tag}-{i}", attribute, f"v-{tag}-{i}")
        for i in range(n)
    ]


def settle(handle, timeout=10.0):
    """Wait until every admitted batch's done callback has run."""
    deadline = time.monotonic() + timeout
    while handle.stats["pending_claims"]:
        assert time.monotonic() < deadline, "tenant never settled"
        time.sleep(0.005)


def assert_matches_offline(handle):
    snapshot = handle.snapshot()
    offline = TDAC(MajorityVote(), config=CONFIG).run(
        handle.replay_dataset(snapshot.watermark)
    )
    assert dict(snapshot.predictions) == dict(offline.result.predictions)
    assert dict(snapshot.source_trust) == dict(offline.result.source_trust)
    assert snapshot.partition == offline.partition
    return snapshot


class TestEngineSharing:
    def test_same_key_tenants_share_one_engine(self, dataset):
        with TenantRegistry(service_config=FAST) as registry:
            alice = registry.register("alice", MajorityVote(), dataset,
                                      config=CONFIG)
            bob = registry.register("bob", MajorityVote(), dataset,
                                    config=CONFIG)
            assert isinstance(alice, TenantHandle)
            assert isinstance(alice.engine, TruthService)
            assert alice.engine is bob.engine
            assert len(registry.engines) == 1
            assert registry.tenants == ("alice", "bob")

    def test_distinct_keys_get_distinct_engines(self, dataset,
                                                other_dataset):
        with TenantRegistry(service_config=FAST) as registry:
            alice = registry.register("alice", MajorityVote(), dataset,
                                      config=CONFIG)
            # Same corpus, different config → different key.
            carol = registry.register(
                "carol", MajorityVote(), dataset,
                config=TDACConfig(seed=99),
            )
            dave = registry.register("dave", MajorityVote(), other_dataset,
                                     config=CONFIG)
            assert alice.engine is not carol.engine
            assert alice.engine is not dave.engine
            assert len(registry.engines) == 3

    def test_duplicate_tenant_name_rejected(self, dataset):
        with TenantRegistry(service_config=FAST) as registry:
            registry.register("alice", MajorityVote(), dataset,
                              config=CONFIG)
            with pytest.raises(ValueError, match="already registered"):
                registry.register("alice", MajorityVote(), dataset,
                                  config=CONFIG)

    def test_interleaved_tenants_share_one_exact_merged_view(self, dataset):
        with TenantRegistry(service_config=FAST) as registry:
            alice = registry.register("alice", MajorityVote(), dataset,
                                      config=CONFIG)
            bob = registry.register("bob", MajorityVote(), dataset,
                                    config=CONFIG)
            alice.ingest(fresh_claims(dataset, "a", 2), wait=True)
            bob.ingest(fresh_claims(dataset, "b", 2), wait=True)
            alice.ingest(fresh_claims(dataset, "a2", 1), wait=True)
            merged = assert_matches_offline(alice)
            assert isinstance(merged, TruthSnapshot)
            assert merged.watermark == 5
            # Both handles see the same engine-level view.
            assert bob.snapshot().version == merged.version


class TestQuotas:
    def test_quota_breach_raises_and_counts(self, dataset):
        with TenantRegistry(service_config=FAST) as registry:
            alice = registry.register("alice", MajorityVote(), dataset,
                                      config=CONFIG, quota=3)
            alice.ingest(fresh_claims(dataset, "ok", 2), wait=True)
            with pytest.raises(TenantQuotaError) as info:
                alice.ingest(fresh_claims(dataset, "burst", 4))
            assert info.value.tenant == "alice"
            # A quota breach is a retryable overload to clients.
            assert isinstance(info.value, ServiceOverloadedError)
            assert info.value.retry_after_seconds > 0
            stats = alice.stats
            assert stats["quota_rejections"] == 1
            assert stats["ingested_claims"] == 2

    def test_quota_is_per_tenant_not_per_engine(self, dataset):
        with TenantRegistry(service_config=FAST) as registry:
            alice = registry.register("alice", MajorityVote(), dataset,
                                      config=CONFIG, quota=1)
            bob = registry.register("bob", MajorityVote(), dataset,
                                    config=CONFIG)
            with pytest.raises(TenantQuotaError):
                alice.ingest(fresh_claims(dataset, "a", 2))
            # Bob shares the engine but not the quota.
            bob.ingest(fresh_claims(dataset, "b", 2), wait=True)
            assert bob.stats["applied_claims"] == 2

    def test_pending_released_after_settle(self, dataset):
        with TenantRegistry(service_config=FAST) as registry:
            alice = registry.register("alice", MajorityVote(), dataset,
                                      config=CONFIG, quota=2)
            for j in range(3):  # sequential batches never breach
                alice.ingest(fresh_claims(dataset, f"s{j}", 2), wait=True)
            settle(alice)
            assert alice.stats["applied_claims"] == 6

    def test_rejected_batch_is_not_counted_as_applied(self, dataset):
        with TenantRegistry(service_config=FAST) as registry:
            alice = registry.register("alice", MajorityVote(), dataset,
                                      config=CONFIG, quota=4)
            claim = fresh_claims(dataset, "x", 1)[0]
            # The same source asserting two values for one fact breaks
            # the one-truth rule, so the refit rejects the whole batch.
            conflict = [
                claim,
                Claim(claim.source, claim.object, claim.attribute, "other"),
            ]
            with pytest.raises(DataError):
                alice.ingest(conflict, wait=True)
            settle(alice)
            stats = alice.stats
            assert stats["ingested_claims"] == 2
            assert stats["applied_claims"] == 0
            assert stats["engine"]["applied_claims"] == 0
            # The rejected claims no longer hold the tenant's quota.
            alice.ingest(fresh_claims(dataset, "ok", 4), wait=True)
            settle(alice)
            assert alice.stats["applied_claims"] == 4


class TestResolution:
    def test_default_and_unknown(self, dataset):
        with TenantRegistry(service_config=FAST) as registry:
            with pytest.raises(UnknownTenantError):
                registry.resolve_tenant(None)
            alice = registry.register("alice", MajorityVote(), dataset,
                                      config=CONFIG)
            assert registry.resolve_tenant(None) is alice
            assert registry.resolve_tenant("alice") is alice
            with pytest.raises(UnknownTenantError, match="registered"):
                registry.resolve_tenant("eve")

    def test_registry_ducks_as_single_service(self, dataset):
        # The net layer serves a registry directly: untagged traffic
        # flows to the default tenant.
        with TenantRegistry(service_config=FAST) as registry:
            registry.register("alice", MajorityVote(), dataset,
                              config=CONFIG)
            claim = fresh_claims(dataset, "d", 1)[0]
            registry.ingest([claim], wait=True)
            answer = registry.query(claim.object, claim.attribute)
            assert answer.found and answer.value == claim.value
            assert registry.snapshot().watermark == 1


class TestFrontendDispatch:
    def test_tenant_field_routes_and_tags(self, dataset):
        tracer = SpanTracer()
        with TenantRegistry(service_config=FAST, tracer=tracer) as registry:
            registry.register("alice", MajorityVote(), dataset,
                              config=CONFIG)
            registry.register("bob", MajorityVote(), dataset,
                              config=CONFIG)
            claim = fresh_claims(dataset, "f", 1)[0]
            response = handle_request(registry, {
                "op": "ingest",
                "tenant": "bob",
                "wait": True,
                "claims": [{
                    "source": claim.source, "object": claim.object,
                    "attribute": claim.attribute, "value": claim.value,
                }],
            })
            assert response["ok"] is True
            assert response["schema"] == "tdac-serve/v1"
            assert response["tenant"] == "bob"
            assert tracer.counters["tenant.bob.ingest.claims"] == 1
            answer = handle_request(registry, {
                "op": "query", "tenant": "alice",
                "object": claim.object, "attribute": claim.attribute,
            })
            # Same engine: alice sees bob's claim through the shared view.
            assert answer["tenant"] == "alice"
            assert answer["value"] == claim.value

    def test_unknown_tenant_is_an_enveloped_error(self, dataset):
        with TenantRegistry(service_config=FAST) as registry:
            registry.register("alice", MajorityVote(), dataset,
                              config=CONFIG)
            response = handle_request(
                registry, {"op": "stats", "tenant": "eve"}
            )
            assert response["ok"] is False
            assert "unknown tenant" in response["error"]
            assert "alice" in response["error"]
            assert json.dumps(response)  # wire-serializable


class TestDurableNamespaces:
    def test_per_tenant_wal_namespaces(self, dataset, other_dataset,
                                       tmp_path):
        with TenantRegistry(
            store_root=tmp_path, service_config=FAST
        ) as registry:
            alice = registry.register("alice", MajorityVote(), dataset,
                                      config=CONFIG)
            registry.register("dave", MajorityVote(), other_dataset,
                              config=CONFIG)
            alice.ingest(fresh_claims(dataset, "w", 1), wait=True)
            assert (tmp_path / "tenants" / "alice").is_dir()
            assert (tmp_path / "tenants" / "dave").is_dir()

    def test_namespace_resumes_in_a_new_registry(self, dataset,
                                                 tmp_path):
        registry = TenantRegistry(store_root=tmp_path, service_config=FAST)
        alice = registry.register("alice", MajorityVote(), dataset,
                                  config=CONFIG)
        acked = fresh_claims(dataset, "c", 2) + fresh_claims(dataset, "d", 1)
        alice.ingest(acked[:2], wait=True)
        alice.ingest(acked[2:], wait=True)
        # No final checkpoint: the namespace looks as it would after a
        # crash, so the restart must replay the WAL tail.
        registry.stop(checkpoint=False)

        with TenantRegistry(
            store_root=tmp_path, service_config=FAST
        ) as reopened:
            alice = reopened.register("alice", MajorityVote(), dataset,
                                      config=CONFIG)
            replayed = set(alice.replay_dataset().iter_claims())
            assert set(acked) <= replayed
            snapshot = assert_matches_offline(alice)
            assert snapshot.watermark == 3
            post = fresh_claims(dataset, "post", 1)
            alice.ingest(post, wait=True)
            assert assert_matches_offline(alice).watermark == 4

    def test_resume_parses_one_checkpoint(self, dataset, tmp_path,
                                          monkeypatch):
        from repro.store import SnapshotStore

        for tag in ("a", "b"):
            with TenantRegistry(
                store_root=tmp_path, service_config=FAST
            ) as registry:
                alice = registry.register("alice", MajorityVote(), dataset,
                                          config=CONFIG)
                alice.ingest(fresh_claims(dataset, tag, 1), wait=True)
        snapshots = SnapshotStore(tmp_path / "tenants" / "alice" / "snapshots")
        assert len(snapshots.entries()) >= 3

        calls = []
        original = SnapshotStore.load

        def counting_load(self, path):
            calls.append(path)
            return original(self, path)

        monkeypatch.setattr(SnapshotStore, "load", counting_load)
        with TenantRegistry(
            store_root=tmp_path, service_config=FAST
        ) as reopened:
            alice = reopened.register("alice", MajorityVote(), dataset,
                                      config=CONFIG)
            assert alice.snapshot().watermark == 2
        assert len(calls) == 1

    def test_namespace_of_another_config_is_refused(self, dataset,
                                                    tmp_path):
        with TenantRegistry(
            store_root=tmp_path, service_config=FAST
        ) as registry:
            registry.register("alice", MajorityVote(), dataset,
                              config=CONFIG)
        with TenantRegistry(
            store_root=tmp_path, service_config=FAST
        ) as reopened:
            with pytest.raises(StoreError, match="checkpointed under config"):
                reopened.register("alice", MajorityVote(), dataset,
                                  config=TDACConfig(seed=99))


class TestLifecycle:
    def test_stop_is_idempotent_and_final(self, dataset):
        registry = TenantRegistry(service_config=FAST)
        registry.register("alice", MajorityVote(), dataset, config=CONFIG)
        registry.stop()
        registry.stop()  # idempotent
        with pytest.raises(Exception):
            registry.register("bob", MajorityVote(), dataset,
                              config=CONFIG)

    def test_stop_after_a_timed_out_stop_stops_every_engine(
        self, dataset, tmp_path
    ):
        base = SlowMajorityVote()
        registry = TenantRegistry(store_root=tmp_path, service_config=FAST)
        alice = registry.register("alice", base, dataset, config=CONFIG)
        base.slow.set()
        ticket = alice.ingest(fresh_claims(dataset, "s", 2))
        with pytest.raises(TimeoutError):
            registry.stop(timeout=0.05)
        ticket.wait(30.0)
        registry.stop()
        assert alice.engine.store.wal._handle is None
        assert (
            alice.engine.store.snapshots.entries()[0].version
            == alice.snapshot().version
        )

    def test_registry_stats_aggregate(self, dataset):
        with TenantRegistry(service_config=FAST) as registry:
            alice = registry.register("alice", MajorityVote(), dataset,
                                      config=CONFIG)
            registry.register("bob", MajorityVote(), dataset,
                              config=CONFIG)
            alice.ingest(fresh_claims(dataset, "s", 2), wait=True)
            stats = registry.stats
            assert set(stats["tenants"]) == {"alice", "bob"}
            assert stats["tenants"]["alice"]["ingested_claims"] == 2
            assert stats["n_tenants"] == 2
            assert stats["n_engines"] == 1
