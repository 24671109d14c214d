"""Tests for :class:`~repro.serving.sharding.ShardRouter`.

The core contract under test is the sharded generalisation of the
serving layer's bit-identity invariant: the merged view at every
watermark equals one offline ``TDAC.run`` over the union of all shards'
applied claims — across lazy merges, lazy shard activation, duplicate
retries, rebalancing hand-offs and crash/restore cycles.
"""

import pytest

from repro import TDAC, MajorityVote, SpanTracer, TDACConfig
from repro.data import Claim
from repro.datasets import make_synthetic
from repro.serving import (
    MergedSnapshot,
    ServiceConfig,
    ServiceOverloadedError,
    ServiceStoppedError,
    ShardRouter,
)
from repro.serving.sharding import attribute_home

CONFIG = TDACConfig(seed=13)
FAST = ServiceConfig(max_wait_ms=1.0)


@pytest.fixture
def dataset():
    return make_synthetic("DS1", n_objects=15, seed=13).dataset


def fresh_claims(dataset, tag, n, attr_index=0):
    attribute = dataset.attributes[attr_index % len(dataset.attributes)]
    return [
        Claim(dataset.sources[i % len(dataset.sources)],
              f"obj-{tag}-{i}", attribute, f"v-{tag}-{i}")
        for i in range(n)
    ]


def assert_merged_matches_offline(router, merged=None):
    merged = router.snapshot() if merged is None else merged
    offline = TDAC(MajorityVote(), config=router.config).run(
        router.replay_dataset(merged.watermark)
    )
    assert dict(merged.predictions) == dict(offline.result.predictions)
    assert dict(merged.source_trust) == dict(offline.result.source_trust)
    assert merged.partition == offline.partition
    assert merged.silhouette_by_k == offline.silhouette_by_k
    return merged


class TestRouting:
    def test_attribute_home_is_stable_and_in_range(self, dataset):
        for attribute in dataset.attributes:
            home = attribute_home(attribute, 4)
            assert 0 <= home < 4
            assert home == attribute_home(attribute, 4)  # deterministic

    def test_exception_list_covers_straddling_blocks(self, dataset):
        router = ShardRouter(
            MajorityVote(), dataset, n_shards=3, config=CONFIG,
            service_config=FAST,
        )
        with router:
            merged = router.snapshot()
            exceptions = router.exceptions
            for block in merged.partition.blocks:
                shards = {router.shard_of(a) for a in block}
                # Whole blocks live on one shard (one fact's claims
                # always meet the block's one-truth check).
                assert len(shards) == 1
                homes = {attribute_home(a, 3) for a in block}
                if len(homes) == 1:
                    # Unanimous blocks live on their hash home, off the
                    # exception list.
                    assert shards == homes
                    assert not any(a in exceptions for a in block)
                else:
                    # Straddling blocks land on the exception shard and
                    # every off-home attribute is recorded.
                    assert shards == {router.exception_shard}
                    for a in block:
                        assert (a in exceptions) == (
                            attribute_home(a, 3) != router.exception_shard
                        )

    def test_new_attribute_routes_sticky_by_hash(self, dataset):
        with ShardRouter(
            MajorityVote(), dataset, n_shards=3, config=CONFIG,
            service_config=FAST,
        ) as router:
            claim = Claim(dataset.sources[0], "new-o", "brand-new-attr", 1)
            expected = attribute_home("brand-new-attr", 3)
            assert router.shard_of("brand-new-attr") == expected
            router.ingest([claim], wait=True)
            assert router.shard_of("brand-new-attr") == expected

    def test_invalid_construction_rejected(self, dataset):
        with pytest.raises(ValueError):
            ShardRouter(MajorityVote(), dataset, n_shards=0)
        with pytest.raises(ValueError):
            ShardRouter(MajorityVote(), dataset, n_shards=2,
                        exception_shard=2)


class TestMergedBitIdentity:
    def test_every_watermark_matches_offline_run(self, dataset):
        with ShardRouter(
            MajorityVote(), dataset, n_shards=3, config=CONFIG,
            service_config=FAST,
        ) as router:
            watermarks = [0]
            for j in range(4):
                router.ingest(
                    fresh_claims(dataset, f"w{j}", 2, attr_index=j),
                    wait=True,
                )
                merged = assert_merged_matches_offline(router)
                assert merged.exact
                watermarks.append(merged.watermark)
            # Watermarks cover every applied claim, monotonically.
            assert watermarks == sorted(watermarks)
            assert watermarks[-1] == 8

    def test_single_shard_degenerates_cleanly(self, dataset):
        with ShardRouter(
            MajorityVote(), dataset, n_shards=1, config=CONFIG,
            service_config=FAST,
        ) as router:
            router.ingest(fresh_claims(dataset, "s", 3), wait=True)
            assert_merged_matches_offline(router)

    def test_duplicate_retry_is_a_no_op(self, dataset):
        # At-least-once clients re-send batches whose ack was lost; the
        # re-assertion must not disturb the merged view.
        with ShardRouter(
            MajorityVote(), dataset, n_shards=2, config=CONFIG,
            service_config=FAST,
        ) as router:
            batch = fresh_claims(dataset, "dup", 3)
            router.ingest(batch, wait=True)
            first = assert_merged_matches_offline(router)
            router.ingest(batch, wait=True)  # the retry
            second = assert_merged_matches_offline(router)
            assert dict(second.predictions) == dict(first.predictions)

    def test_merge_every_refreshes_inline(self, dataset):
        with ShardRouter(
            MajorityVote(), dataset, n_shards=2, config=CONFIG,
            service_config=ServiceConfig(max_wait_ms=1.0, merge_every=1),
        ) as router:
            router.ingest(fresh_claims(dataset, "m", 2), wait=True)
            router.drain()
            # The settle callback already merged; stats see no lag.
            assert router.stats["merged_lag_claims"] == 0

    def test_lazy_merge_defers_cost_off_hot_path(self, dataset):
        with ShardRouter(
            MajorityVote(), dataset, n_shards=2, config=CONFIG,
            service_config=FAST,  # merge_every=0: merge on demand only
        ) as router:
            router.ingest(fresh_claims(dataset, "lazy", 2), wait=True)
            router.drain()
            assert router.stats["merged_lag_claims"] == 2
            merged = assert_merged_matches_offline(router)  # snapshot()
            assert merged.watermark == 2
            assert router.stats["merged_lag_claims"] == 0


class TestMergedSnapshot:
    def test_duck_compatible_with_truth_snapshot(self, dataset):
        with ShardRouter(
            MajorityVote(), dataset, n_shards=2, config=CONFIG,
            service_config=FAST,
        ) as router:
            claim = fresh_claims(dataset, "q", 1)[0]
            router.ingest([claim], wait=True)
            merged = router.snapshot()
            assert isinstance(merged, MergedSnapshot)
            assert merged.value(claim.object, claim.attribute) == claim.value
            answer = router.query(claim.object, claim.attribute)
            assert answer.found and answer.value == claim.value

    def test_to_dict_carries_result_schema_and_shards(self, dataset):
        from repro.core import RESULT_SCHEMA

        with ShardRouter(
            MajorityVote(), dataset, n_shards=2, config=CONFIG,
            service_config=FAST,
        ) as router:
            router.ingest(fresh_claims(dataset, "d", 2), wait=True)
            payload = router.snapshot().to_dict()
        assert payload["schema"] == RESULT_SCHEMA
        assert payload["serving"]["watermark"] == 2
        assert payload["serving"]["exact"] is True
        assert len(payload["shards"]) == 2
        assert {s["index"] for s in payload["shards"]} == {0, 1}
        assert sum(s["applied_claims"] for s in payload["shards"]) == 2


class TestLazyShards:
    def test_cold_shard_activates_on_first_batch(self, dataset):
        # Restrict the corpus to attributes homed on one shard, so the
        # other starts empty (no service, no threads).
        n_shards = 2
        keep = [a for a in dataset.attributes
                if attribute_home(a, n_shards) == 0]
        if not keep:  # pragma: no cover - hash-dependent guard
            pytest.skip("no attribute homed on shard 0 for this corpus")
        small = dataset.restrict_attributes(keep)
        with ShardRouter(
            MajorityVote(), small, n_shards=n_shards, config=CONFIG,
            service_config=FAST, exception_shard=0,
        ) as router:
            cold = [a for a in ("cold-a", "cold-b", "cold-c")
                    if attribute_home(a, n_shards) == 1]
            if not cold:  # pragma: no cover - hash-dependent guard
                pytest.skip("no probe attribute hashes to shard 1")
            ticket = router.ingest(
                [Claim(small.sources[0], "cold-obj", cold[0], "cv")]
            )
            ack = ticket.wait(30)
            assert ack.watermark >= 1
            assert router.stats["lazy_activations"] == 1
            answer = router.query("cold-obj", cold[0])
            assert answer.found and answer.value == "cv"
            assert_merged_matches_offline(router)


class TestRebalance:
    def test_forced_rebalance_keeps_merged_view_and_exactness(
        self, dataset, tmp_path
    ):
        with ShardRouter(
            MajorityVote(), dataset, n_shards=2, config=CONFIG,
            service_config=FAST, store=tmp_path / "store",
        ) as router:
            for j in range(3):
                router.ingest(
                    fresh_claims(dataset, f"r{j}", 3, attr_index=0),
                    wait=True,
                )
            before = assert_merged_matches_offline(router)
            router.rebalance()
            stats = router.stats
            assert stats["epoch"] == 1
            assert stats["rebalances"] == 1
            # The hand-off is exact: placement moved, the view did not.
            after = router.snapshot()
            assert after.watermark == before.watermark
            assert dict(after.predictions) == dict(before.predictions)
            # And the rebuilt shards keep serving exactly.
            router.ingest(fresh_claims(dataset, "post", 2), wait=True)
            assert_merged_matches_offline(router)

    def test_skew_triggers_maybe_rebalance(self, dataset):
        with ShardRouter(
            MajorityVote(), dataset, n_shards=2, config=CONFIG,
            service_config=ServiceConfig(
                max_wait_ms=1.0, rebalance_threshold=1.2
            ),
        ) as router:
            # Hammer one attribute: its shard absorbs everything.
            for j in range(3):
                router.ingest(
                    fresh_claims(dataset, f"skew{j}", 4, attr_index=0),
                    wait=True,
                )
            router.drain()
            assert router.skew() > 1.2
            assert router.maybe_rebalance() is True
            assert router.stats["epoch"] == 1
            assert_merged_matches_offline(router)

    def test_below_threshold_does_not_rebalance(self, dataset):
        with ShardRouter(
            MajorityVote(), dataset, n_shards=2, config=CONFIG,
            service_config=FAST,  # threshold 0 = disabled
        ) as router:
            router.ingest(fresh_claims(dataset, "s", 2), wait=True)
            assert router.maybe_rebalance() is False
            assert router.stats["epoch"] == 0


class TestCrashRestore:
    def test_crashed_shard_loses_no_acked_claims(self, dataset, tmp_path):
        tracer = SpanTracer()
        router = ShardRouter(
            MajorityVote(), dataset, n_shards=2, config=CONFIG,
            service_config=FAST, store=tmp_path / "store", tracer=tracer,
        )
        router.start()
        try:
            acked = []
            for j in range(3):
                batch = fresh_claims(dataset, f"a{j}", 2, attr_index=j)
                router.ingest(batch, wait=True)
                acked.extend(batch)
            victim = router.shard_of(dataset.attributes[0])
            router.crash_shard(victim)
            # The dead shard's attributes reject with the standard
            # retryable overload; the survivor keeps serving.
            with pytest.raises(ServiceOverloadedError):
                router.ingest(
                    [Claim(dataset.sources[0], "x", dataset.attributes[0],
                           "v")]
                )
            survivor_attr = next(
                a for a in dataset.attributes
                if router.shard_of(a) != victim
            )
            router.ingest(
                [Claim(dataset.sources[1], "up-obj", survivor_attr, "uv")],
                wait=True,
            )
            router.restore_shard(victim)
            post = fresh_claims(dataset, "post", 2, attr_index=0)
            router.ingest(post, wait=True)
            merged = assert_merged_matches_offline(router)
            # Every acked claim (pre-crash, during, post-restore) is in
            # the merged view's log.
            log = set(router.claim_log)
            for claim in acked + post:
                assert claim in log
            assert merged.watermark == len(acked) + 1 + len(post)
            assert tracer.counters["shard.crash"] == 1
            assert tracer.counters["shard.restore"] == 1
        finally:
            router.stop()

    def test_query_on_down_shard_falls_back_to_merged(
        self, dataset, tmp_path
    ):
        with ShardRouter(
            MajorityVote(), dataset, n_shards=2, config=CONFIG,
            service_config=FAST, store=tmp_path / "store",
        ) as router:
            claim = fresh_claims(dataset, "q", 1)[0]
            router.ingest([claim], wait=True)
            router.snapshot()  # fold into the merged view
            router.crash_shard(router.shard_of(claim.attribute))
            answer = router.query(claim.object, claim.attribute)
            assert answer.found and answer.value == claim.value

    def test_crash_without_store_cannot_restore(self, dataset):
        with ShardRouter(
            MajorityVote(), dataset, n_shards=2, config=CONFIG,
            service_config=FAST,
        ) as router:
            router.crash_shard(0)
            with pytest.raises(ValueError, match="no store"):
                router.restore_shard(0)


class TestLifecycle:
    def test_ingest_before_start_and_after_stop_rejected(self, dataset):
        router = ShardRouter(
            MajorityVote(), dataset, n_shards=2, config=CONFIG,
            service_config=FAST,
        )
        with pytest.raises(ServiceStoppedError):
            router.ingest(fresh_claims(dataset, "x", 1))
        router.start()
        router.stop()
        with pytest.raises(ServiceStoppedError):
            router.ingest(fresh_claims(dataset, "y", 1))

    def test_stats_shape(self, dataset):
        with ShardRouter(
            MajorityVote(), dataset, n_shards=2, config=CONFIG,
            service_config=FAST,
        ) as router:
            router.ingest(fresh_claims(dataset, "s", 2), wait=True)
            router.drain()
            stats = router.stats
            assert stats["n_shards"] == 2
            assert stats["applied_claims"] == 2
            assert stats["ingested_claims"] == 2
            assert set(stats["shards"]) == {"0", "1"}
            assert stats["skew"] >= 1.0
