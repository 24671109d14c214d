"""Exactness proofs for the incremental delta path.

Every layer of the streaming stack promises bit-identity with its batch
counterpart; this module pins each promise:

* ``Dataset.extended`` is fingerprint-identical to a full builder replay;
* ``ClaimIndexEngine.extended`` splices arrays byte-identical to a cold
  ``DatasetIndex`` compile;
* ``TruthVectorStore.advance`` patches the Eq. 1 matrix cell-for-cell
  identical to ``build_truth_vectors``;
* ``IncrementalTDAC.update`` returns results bit-identical to an offline
  ``TDAC.run`` over the accumulated dataset at every watermark — through
  new objects, new attributes, new sources, the warm-probe fallback and
  the staleness-triggered full refit;
* ``TruthService.restore`` replaying the WAL tail through the delta path
  publishes the same snapshot as a full-refit replay.
"""

import random
import warnings

import numpy as np
import pytest

from repro.algorithms import MajorityVote, TruthFinder
from repro.core import IncrementalTDAC, TDAC, TDACConfig
from repro.core.incremental import extend_dataset
from repro.core.partition import Partition
from repro.core.truth_vectors import TruthVectorStore, build_truth_vectors
from repro.data import Claim, DataError
from repro.data.builder import DatasetBuilder
from repro.data.claim_engine import ClaimIndexEngine
from repro.data.index import DatasetIndex
from repro.datasets import make_synthetic
from repro.serving import ServiceConfig

CONFIG = TDACConfig(seed=0)


def rebuild_extended(dataset, claims):
    """The historical O(corpus) extension: full builder replay."""
    builder = DatasetBuilder(name=dataset.name)
    builder.declare_sources(dataset.sources)
    builder.declare_objects(dataset.objects)
    builder.declare_attributes(dataset.attributes)
    for claim in dataset.iter_claims():
        builder.add_claim(
            claim.source, claim.object, claim.attribute, claim.value
        )
    builder.set_truths(dataset.truth)
    builder.add_claims(claims)
    return builder.build()


def random_batch(rng, dataset, step, allow_new_attribute=False):
    """A small batch of claims new to ``dataset``: mixed new/old ids."""
    sources = list(dataset.sources) + [f"src-{step}"]
    attributes = list(dataset.attributes)
    if allow_new_attribute:
        attributes.append(f"attr-{step}")
    batch = []
    for j in range(rng.randint(2, 6)):
        s = rng.choice(sources)
        if rng.random() < 0.6:
            o = f"obj-{step}-{j}"
        else:
            o = rng.choice(list(dataset.objects))
        a = rng.choice(attributes)
        key = (s, o, a)
        if dataset.value(*key) is None and all(
            (c.source, c.object, c.attribute) != key for c in batch
        ):
            batch.append(Claim(s, o, a, f"v{rng.randint(0, 2)}"))
    return batch


class TestDatasetExtended:
    def test_fingerprint_identical_to_rebuild(self):
        dataset = make_synthetic("DS1", n_objects=12, seed=5).dataset
        rng = random.Random(1)
        for step in range(4):
            batch = random_batch(rng, dataset, step, allow_new_attribute=True)
            fast = dataset.extended(batch)
            slow = rebuild_extended(dataset, batch)
            assert fast.fingerprint == slow.fingerprint
            assert fast.sources == slow.sources
            assert fast.objects == slow.objects
            assert fast.attributes == slow.attributes
            dataset = fast

    def test_conflict_raises_and_duplicate_is_noop(self):
        dataset = make_synthetic("DS1", n_objects=5, seed=5).dataset
        existing = next(dataset.iter_claims())
        with pytest.raises(DataError):
            dataset.extended(
                [Claim(existing.source, existing.object, existing.attribute,
                       f"{existing.value}-flip")]
            )
        assert dataset.extended([existing]) is dataset
        assert dataset.extended([]) is dataset

    def test_extend_dataset_delegates_to_append_path(self):
        dataset = make_synthetic("DS1", n_objects=5, seed=5).dataset
        batch = [Claim(dataset.sources[0], "brand-new", "attr-x", 1)]
        assert (
            extend_dataset(dataset, batch).fingerprint
            == rebuild_extended(dataset, batch).fingerprint
        )


class TestEngineDeltaCompile:
    def assert_index_equal(self, spliced: DatasetIndex, cold: DatasetIndex):
        assert spliced.facts == cold.facts
        assert spliced.slot_values == cold.slot_values
        np.testing.assert_array_equal(spliced.slot_fact, cold.slot_fact)
        np.testing.assert_array_equal(
            spliced.fact_slot_start, cold.fact_slot_start
        )
        np.testing.assert_array_equal(
            spliced.claim_source, cold.claim_source
        )
        np.testing.assert_array_equal(spliced.claim_fact, cold.claim_fact)
        np.testing.assert_array_equal(spliced.claim_slot, cold.claim_slot)
        np.testing.assert_array_equal(spliced.true_slot, cold.true_slot)

    def test_spliced_compile_matches_cold_compile(self):
        dataset = make_synthetic("DS1", n_objects=12, seed=7).dataset
        engine = ClaimIndexEngine.shared(dataset)
        rng = random.Random(2)
        for step in range(4):
            batch = random_batch(rng, dataset, step, allow_new_attribute=True)
            if not batch:
                continue
            extended = dataset.extended(batch)
            engine = engine.extended(extended, batch)
            self.assert_index_equal(
                engine.full_index, DatasetIndex(extended)
            )
            dataset = extended

    def test_mismatched_extension_rejected(self):
        dataset = make_synthetic("DS1", n_objects=5, seed=7).dataset
        engine = ClaimIndexEngine.shared(dataset)
        other = make_synthetic("DS1", n_objects=6, seed=8).dataset
        with pytest.raises(ValueError):
            engine.extended(other, [])


class TestTruthVectorStore:
    def test_patched_matrix_matches_batch_builder(self):
        dataset = make_synthetic("DS1", n_objects=12, seed=3).dataset
        base = MajorityVote()
        reference = base.discover(dataset)
        store = TruthVectorStore(dataset, reference)
        engine = ClaimIndexEngine.shared(dataset)
        rng = random.Random(3)
        for step in range(5):
            batch = random_batch(rng, dataset, step, allow_new_attribute=True)
            if not batch:
                continue
            extended = dataset.extended(batch)
            new_source = len(extended.sources) != len(dataset.sources)
            engine = (
                ClaimIndexEngine.shared(extended)
                if new_source
                else engine.extended(extended, batch)
            )
            reference = base.discover(extended)
            delta = store.advance(extended, engine, reference, batch)
            built = build_truth_vectors(extended, reference)
            np.testing.assert_array_equal(
                delta.vectors.matrix, built.matrix
            )
            np.testing.assert_array_equal(delta.vectors.mask, built.mask)
            assert delta.vectors.attributes == built.attributes
            assert delta.vectors.ranks == built.ranks
            assert delta.rebuilt == new_source
            dataset = extended
        assert store.patches > 0


class TestStreamBitIdentity:
    """The tentpole property: delta snapshots == offline at every step."""

    def assert_matches_offline(self, outcome, dataset, config):
        offline = TDAC(MajorityVote(), config=config).run(dataset)
        assert dict(outcome.predictions) == dict(offline.result.predictions)
        assert dict(outcome.source_trust) == dict(
            offline.result.source_trust
        )
        assert outcome.partition == offline.partition
        assert dict(outcome.silhouette_by_k) == dict(offline.silhouette_by_k)

    # n_jobs=2 fans the partial block refreshes of every delta update
    # out over the block executor, exactly as a full refit's blocks.
    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("distance", ["hamming", "masked"])
    def test_randomized_stream_matches_offline_at_every_watermark(
        self, distance, n_jobs
    ):
        config = TDACConfig(seed=0, distance=distance, n_jobs=n_jobs)
        dataset = make_synthetic("DS1", n_objects=25, seed=11).dataset
        incremental = IncrementalTDAC(
            MajorityVote(), config=config, repartition_fraction=1.0
        )
        incremental.fit(dataset)
        rng = random.Random(4)
        delta_updates = 0
        for step in range(6):
            batch = random_batch(
                rng, incremental.dataset, step,
                allow_new_attribute=step in (2, 4),
            )
            if not batch:
                continue
            outcome = incremental.update(batch)
            delta_updates += 1
            self.assert_matches_offline(
                outcome, incremental.dataset, config
            )
        assert delta_updates >= 4
        assert incremental.stats["full_fits"] == 1
        assert incremental.stats["delta_updates"] == delta_updates
        assert incremental.stats["blocks_reused"] > 0

    def test_warm_probe_disagreement_forces_all_blocks(self, monkeypatch):
        # The fallback-to-full path: when the warm-started probe and the
        # certified cold sweep disagree, no previous block result is
        # reused — and the outcome still matches offline exactly.
        config = TDACConfig(seed=0)
        dataset = make_synthetic("DS1", n_objects=20, seed=13).dataset
        incremental = IncrementalTDAC(MajorityVote(), config=config)
        incremental.fit(dataset)
        # Prime the delta path so _prev_fits exists for the probe.
        incremental.update(
            [Claim(dataset.sources[0], "warm-seed", dataset.attributes[0], 1)]
        )
        monkeypatch.setattr(
            IncrementalTDAC,
            "_warm_probe",
            lambda self, vectors, distances: Partition.whole(
                vectors.attributes
            ),
        )
        before = incremental.stats["blocks_reused"]
        outcome = incremental.update(
            [Claim(dataset.sources[1], "warm-2", dataset.attributes[0], 2)]
        )
        assert incremental.stats["warm_misses"] == 1
        assert incremental.stats["blocks_reused"] == before  # none reused
        self.assert_matches_offline(outcome, incremental.dataset, config)

    def test_new_source_refreshes_every_block_exactly(self):
        config = TDACConfig(seed=0)
        dataset = make_synthetic("DS1", n_objects=15, seed=17).dataset
        incremental = IncrementalTDAC(MajorityVote(), config=config)
        incremental.fit(dataset)
        outcome = incremental.update(
            [Claim("unseen-source", "o1", dataset.attributes[0], "x")]
        )
        assert incremental.stats["blocks_reused"] == 0
        assert "unseen-source" in outcome.source_trust
        self.assert_matches_offline(outcome, incremental.dataset, config)

    def test_conflicting_batch_leaves_state_untouched(self):
        dataset = make_synthetic("DS1", n_objects=10, seed=19).dataset
        incremental = IncrementalTDAC(MajorityVote(), config=CONFIG)
        incremental.fit(dataset)
        before_outcome = incremental.last_outcome
        before_stats = incremental.stats
        existing = next(dataset.iter_claims())
        good = Claim(dataset.sources[0], "fresh-obj", existing.attribute, 1)
        bad = Claim(
            existing.source, existing.object, existing.attribute,
            f"{existing.value}-flip",
        )
        with pytest.raises(DataError):
            incremental.update([good, bad])
        assert incremental.dataset is dataset
        assert incremental.last_outcome is before_outcome
        assert incremental.stats == before_stats

    def test_repartition_boundary_at_fraction_one(self):
        # Regression: the threshold used to compare against the already-
        # extended dataset size, so repartition_fraction=1.0 could never
        # trigger a full refit.  It must compare against the size at the
        # last full fit.
        dataset = make_synthetic("DS1", n_objects=6, seed=23).dataset
        incremental = IncrementalTDAC(
            MajorityVote(), config=CONFIG, repartition_fraction=1.0
        )
        incremental.fit(dataset)
        at_fit = dataset.n_claims
        attribute = dataset.attributes[0]
        exactly_at = [
            Claim(dataset.sources[0], f"bulk-{i}", attribute, f"v{i}")
            for i in range(at_fit)
        ]
        incremental.update(exactly_at)
        assert incremental.stats["full_fits"] == 1  # == threshold: no refit
        incremental.update(
            [Claim(dataset.sources[0], "over-the-line", attribute, "v")]
        )
        assert incremental.stats["full_fits"] == 2  # > threshold: refit
        assert incremental.stats["claims_since_fit"] == 0

    def test_update_metadata_reports_real_work(self):
        # Regression: the merged result used to hard-code iterations=1
        # and elapsed_seconds=0.0.
        dataset = make_synthetic("DS1", n_objects=15, seed=29).dataset
        incremental = IncrementalTDAC(TruthFinder(), config=CONFIG)
        incremental.fit(dataset)
        # A new source forces every block to refresh, so the maximum is
        # taken over all block results.
        outcome = incremental.update(
            [Claim("meta-source", "o1", dataset.attributes[0], "x")]
        )
        assert outcome.result.elapsed_seconds > 0.0
        assert outcome.result.iterations == max(
            r.iterations for r in outcome.block_results
        )
        assert outcome.result.iterations > 1  # TruthFinder iterates


class TestRestoreDeltaReplay:
    def run_service(self, store_dir, dataset, batches):
        from repro.serving import TruthService

        service = TruthService(
            MajorityVote(), dataset, config=CONFIG,
            store=store_dir,
            service_config=ServiceConfig(
                max_wait_ms=1.0, snapshot_every=100
            ),
        )
        service.start()
        for batch in batches:
            service.ingest(batch, wait=True)
        service.stop(checkpoint=False)  # crash-shaped store: tail unfolded

    def test_delta_replay_matches_full_refit_replay(self, tmp_path, dataset=None):
        from repro.observability import SpanTracer
        from repro.serving import TruthService

        dataset = make_synthetic("DS1", n_objects=15, seed=31).dataset
        batches = [
            [Claim(dataset.sources[0], f"r{j}-{i}", dataset.attributes[i % 3], i)
             for i in range(3)]
            for j in range(3)
        ]
        for sub in ("delta", "full"):
            self.run_service(tmp_path / sub, dataset, batches)
        tracer = SpanTracer()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no WAL mismatch warnings
            via_delta = TruthService.restore(tmp_path / "delta", tracer=tracer)
            via_full = TruthService.restore(
                tmp_path / "full",
                service_config=ServiceConfig(replay_refit="full"),
            )
        try:
            a, b = via_delta.snapshot(), via_full.snapshot()
            assert a.version == b.version
            assert a.watermark == b.watermark
            assert a.dataset_fingerprint == b.dataset_fingerprint
            assert dict(a.predictions) == dict(b.predictions)
            assert dict(a.source_trust) == dict(b.source_trust)
            assert a.partition == b.partition
            assert dict(a.silhouette_by_k) == dict(b.silhouette_by_k)
            assert a.exact and b.exact
            # The default replay actually rode the delta path.
            assert tracer.counters["serve.refit.incremental"] == len(batches)
            # And both match the offline pipeline at the watermark.
            offline = TDAC(MajorityVote(), config=CONFIG).run(
                via_delta.replay_dataset(a.watermark)
            )
            assert dict(a.predictions) == dict(offline.result.predictions)
            assert a.partition == offline.partition
        finally:
            via_delta.stop()
            via_full.stop()
