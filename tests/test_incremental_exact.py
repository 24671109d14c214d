"""Exactness proofs for the incremental delta path.

Every layer of the streaming stack promises bit-identity with its batch
counterpart; this module pins each promise:

* ``Dataset.extended`` is fingerprint-identical to a full builder replay;
* ``ClaimIndexEngine.extended`` (a slice of the untouched facts merged
  with the compile kernel's output for the touched ones) is
  byte-identical to a cold ``DatasetIndex`` compile;
* ``TruthVectorStore.advance`` patches the Eq. 1 matrix cell-for-cell
  identical to ``build_truth_vectors``;
* both also hold on hypothesis-drawn adversarial datasets (1/1.0/True,
  NaN objects, None, tuples; partial and unclaimed truth; identifiers
  appended by the extension) split into a prefix and 1-3 batches;
* ``IncrementalTDAC.update`` returns results bit-identical to an offline
  ``TDAC.run`` over the accumulated dataset at every watermark — through
  new objects, new attributes, new sources and batches of any size;
* ``TruthService.restore`` folding the committed WAL tail into one fit
  publishes the snapshot the crashed service last published.
"""

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import Accu, MajorityVote, TruthFinder
from repro.algorithms.base import TruthDiscoveryResult
from repro.core import IncrementalTDAC, TDAC, TDACConfig
from repro.core.incremental import extend_dataset
from repro.core.truth_vectors import TruthVectorStore, build_truth_vectors
from repro.data import Claim, DataError, Dataset, Fact
from repro.data.builder import DatasetBuilder
from repro.data.claim_engine import ClaimIndexEngine
from repro.data.index import DatasetIndex
from repro.datasets import make_synthetic
from repro.serving import ServiceConfig
from tests.oracles.fingerprint import dataset_fingerprint_loop
from tests.strategies import ADVERSARIAL_VALUES, claim_datasets

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
            # Both digests come from Dataset.fingerprint; the loop oracle
            # pins the carried one to the definition.
            assert fast.fingerprint == slow.fingerprint
            assert fast.fingerprint == dataset_fingerprint_loop(fast)
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
        extended = extend_dataset(dataset, batch)
        assert (
            extended.fingerprint
            == rebuild_extended(dataset, batch).fingerprint
            == dataset_fingerprint_loop(extended)
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
        np.testing.assert_array_equal(spliced._fact_keys, cold._fact_keys)

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
            cold = ClaimIndexEngine(extended)
            self.assert_index_equal(engine.full_index, cold.full_index)
            # The engine's fact keys are the ones its compile packed.
            assert engine._fact_keys is engine.full_index._fact_keys
            np.testing.assert_array_equal(engine._fact_keys, cold._fact_keys)
            np.testing.assert_array_equal(
                engine._fact_attribute, cold._fact_attribute
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
        seed = build_truth_vectors(dataset, reference)
        seed_matrix = seed.matrix.copy()
        store = TruthVectorStore(dataset, reference, seed)
        engine = ClaimIndexEngine.shared(dataset)
        rng = random.Random(3)
        returned = []
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
            returned.append(
                (delta.vectors, built.matrix.copy(), built.mask.copy())
            )
            dataset = extended
        assert store.patches > 0
        # The store never writes a matrix it was seeded with (a fit's
        # published truth vectors) or one it returned.
        np.testing.assert_array_equal(seed.matrix, seed_matrix)
        for vectors, matrix, mask in returned:
            np.testing.assert_array_equal(vectors.matrix, matrix)
            np.testing.assert_array_equal(vectors.mask, mask)


@st.composite
def extension_streams(draw):
    """A ``claim_datasets()`` draw split into a prefix and 1-3 batches.

    The prefix declares the identifiers its claims use plus a drawn
    subset of the others, in the drawn dataset's order; the rest are
    appended by the batch that first claims them.  Truth is the drawn
    dataset's on the facts the prefix can name, so it stays partial and
    may name values or facts no claim covers.
    """
    full = draw(claim_datasets())
    claims = draw(st.permutations(list(full.iter_claims())))
    n_batches = draw(st.integers(1, 3))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(0, len(claims)),
                min_size=n_batches,
                max_size=n_batches,
            )
        )
    )
    prefix = claims[: cuts[0]]
    batches = [
        claims[start:stop]
        for start, stop in zip(cuts, cuts[1:] + [len(claims)])
    ]
    declared = [
        tuple(
            x for x in ids
            if x in {getattr(c, field) for c in prefix} or draw(st.booleans())
        )
        for ids, field in (
            (full.sources, "source"),
            (full.objects, "object"),
            (full.attributes, "attribute"),
        )
    ]
    sources, objects, attributes = declared
    truth = {
        (o, a): value
        for (o, a), value in full.truth.items()
        if o in objects and a in attributes
    }
    dataset = Dataset(
        sources, objects, attributes,
        {(c.source, c.object, c.attribute): c.value for c in prefix},
        truth,
    )
    return dataset, [batch for batch in batches if batch]


def drawn_reference(data, dataset):
    """A reference predicting drawn adversarial values for some facts."""
    omitted = object()
    choices = st.one_of(
        st.just(omitted), st.sampled_from(ADVERSARIAL_VALUES + ("unclaimed",))
    )
    drawn = data.draw(
        st.lists(
            choices, min_size=len(dataset.facts), max_size=len(dataset.facts)
        )
    )
    predictions = {
        fact: value
        for fact, value in zip(dataset.facts, drawn)
        if value is not omitted
    }
    return TruthDiscoveryResult(
        algorithm="drawn",
        predictions=predictions,
        confidence={fact: 1.0 for fact in predictions},
        source_trust={s: 1.0 for s in dataset.sources},
        iterations=1,
        elapsed_seconds=0.0,
    )


class TestAdversarialExtensions:
    """The delta compile and the Eq. 1 patch on adversarial values."""

    def assert_same_index(self, spliced: DatasetIndex, cold: DatasetIndex):
        assert spliced.facts == cold.facts
        assert len(spliced.slot_values) == len(cold.slot_values)
        for a, b in zip(spliced.slot_values, cold.slot_values):
            assert a is b, (a, b)
        for name in (
            "slot_fact",
            "fact_slot_start",
            "claim_source",
            "claim_fact",
            "claim_slot",
            "true_slot",
            "_fact_keys",
        ):
            a, b = getattr(spliced, name), getattr(cold, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        sizes = ("n_sources", "n_facts", "n_slots", "n_claims")
        assert [getattr(spliced, n) for n in sizes] == [
            getattr(cold, n) for n in sizes
        ]

    def test_dropped_prediction_clears_its_cells(self):
        # A fact the new reference no longer predicts confirms nothing;
        # the patch once rewrote only facts whose new prediction
        # differed, so the fact's stale 1 survived.
        dataset = Dataset(
            ["s1", "s2"], ["o", "p"], ["a"],
            {("s1", "o", "a"): 1, ("s1", "p", "a"): 2},
        )
        engine = ClaimIndexEngine.shared(dataset)

        def predicting(predictions):
            return TruthDiscoveryResult(
                algorithm="fixed", predictions=predictions, confidence={},
                source_trust={}, iterations=1, elapsed_seconds=0.0,
            )

        before = predicting({Fact("o", "a"): 1, Fact("p", "a"): 2})
        store = TruthVectorStore(
            dataset, before, build_truth_vectors(dataset, before)
        )
        batch = [Claim("s2", "p", "a", 3)]
        extended = dataset.extended(batch)
        after = predicting({Fact("p", "a"): 2})
        delta = store.advance(
            extended, engine.extended(extended, batch), after, batch
        )
        assert delta.vectors.matrix.tolist() == [[0, 0, 1, 0]]
        assert delta.entries_changed

    @settings(max_examples=150, deadline=None)
    @given(extension_streams(), st.data())
    def test_extensions_match_cold_compile_and_build(self, stream, data):
        dataset, batches = stream
        engine = ClaimIndexEngine.shared(dataset)
        reference = drawn_reference(data, dataset)
        store = TruthVectorStore(
            dataset, reference, build_truth_vectors(dataset, reference)
        )
        for batch in batches:
            extended = dataset.extended(batch)
            engine = engine.extended(extended, batch)
            self.assert_same_index(engine.full_index, DatasetIndex(extended))

            reference = drawn_reference(data, extended)
            delta = store.advance(extended, engine, reference, batch)
            # A copy of the dataset owns no engine: a cold compile.
            cold = Dataset(
                extended.sources, extended.objects, extended.attributes,
                extended.claims, extended.truth,
            )
            built = build_truth_vectors(cold, reference)
            np.testing.assert_array_equal(delta.vectors.matrix, built.matrix)
            np.testing.assert_array_equal(delta.vectors.mask, built.mask)
            assert delta.vectors.ranks == built.ranks
            assert delta.vectors.attributes == built.attributes
            assert delta.rebuilt == (
                len(extended.sources) != len(dataset.sources)
            )
            dataset = extended


def without_elapsed(outcome):
    """``outcome.to_dict()`` minus its wall-clock field."""
    payload = outcome.to_dict()
    del payload["elapsed_seconds"]
    return payload


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

    @pytest.mark.parametrize("distance", ["hamming", "masked"])
    @pytest.mark.parametrize("stream_seed", [4, 5, 6, 7])
    def test_randomized_stream_matches_offline_at_every_watermark(
        self, stream_seed, distance
    ):
        config = TDACConfig(seed=0, distance=distance)
        dataset = make_synthetic("DS1", n_objects=25, seed=11).dataset
        incremental = IncrementalTDAC(MajorityVote(), config=config)
        incremental.fit(dataset)
        rng = random.Random(stream_seed)
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

    @pytest.mark.parametrize("base", [TruthFinder, Accu])
    @pytest.mark.parametrize("stream_seed", [4, 5])
    def test_iterative_bases_match_offline_at_every_watermark(
        self, stream_seed, base
    ):
        # The whole tdac-result/v1 rendering — iterations included —
        # equals offline TDAC.run's, for bases that iterate per block.
        dataset = make_synthetic("DS1", n_objects=15, seed=11).dataset
        incremental = IncrementalTDAC(base(), config=CONFIG)
        incremental.fit(dataset)
        rng = random.Random(stream_seed)
        delta_updates = 0
        for step in range(4):
            batch = random_batch(rng, incremental.dataset, step)
            if not batch:
                continue
            outcome = incremental.update(batch)
            delta_updates += 1
            offline = TDAC(base(), config=CONFIG).run(incremental.dataset)
            assert without_elapsed(outcome) == without_elapsed(offline)
        assert delta_updates >= 3

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

    def test_a_resent_none_claim_is_a_duplicate(self):
        # A stored None re-sent beside a new claim must not count as
        # fresh (the delta compile would see one claim too many).
        dataset = make_synthetic("DS1", n_objects=15, seed=11).dataset
        s0, s1 = dataset.sources[:2]
        attribute = dataset.attributes[0]
        stored = Claim(s0, "new-o", attribute, None)
        incremental = IncrementalTDAC(MajorityVote(), config=CONFIG)
        incremental.fit(dataset)
        incremental.update([stored])
        outcome = incremental.update(
            [stored, Claim(s1, "new-o", attribute, 5)]
        )
        assert incremental.dataset.n_claims == dataset.n_claims + 2
        self.assert_matches_offline(outcome, incremental.dataset, CONFIG)

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

    def test_published_vectors_do_not_change_under_later_updates(self):
        # Regression: a delta result's truth vectors were a live view of
        # the store's buffers, so the next update rewrote them in place.
        dataset = make_synthetic("DS1", n_objects=20, seed=3).dataset
        incremental = IncrementalTDAC(MajorityVote(), config=CONFIG)
        incremental.fit(dataset)
        s0, s1 = dataset.sources[:2]
        attribute = dataset.attributes[0]
        first = incremental.update([Claim(s0, "new-o", attribute, "x")])
        matrix = first.truth_vectors.matrix.copy()
        mask = first.truth_vectors.mask.copy()
        second = incremental.update([Claim(s1, "new-o", attribute, "x")])
        np.testing.assert_array_equal(first.truth_vectors.matrix, matrix)
        np.testing.assert_array_equal(first.truth_vectors.mask, mask)
        assert not np.shares_memory(
            first.truth_vectors.matrix, second.truth_vectors.matrix
        )

    def test_update_metadata_reports_real_work(self):
        # Regressions: the merged result once hard-coded
        # elapsed_seconds=0.0, and later reported the maximum block
        # iteration count where TDAC.run reports its single pass (1).
        dataset = make_synthetic("DS1", n_objects=15, seed=29).dataset
        incremental = IncrementalTDAC(TruthFinder(), config=CONFIG)
        incremental.fit(dataset)
        # A new source forces every block to refresh.
        outcome = incremental.update(
            [Claim("meta-source", "o1", dataset.attributes[0], "x")]
        )
        assert outcome.result.elapsed_seconds > 0.0
        offline = TDAC(TruthFinder(), config=CONFIG).run(incremental.dataset)
        assert without_elapsed(outcome) == without_elapsed(offline)


class TestRestoreRefitsOnce:
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
        last = service.snapshot()
        service.stop(checkpoint=False)  # crash-shaped store: tail unfolded
        return last

    def assert_is_offline_run(self, restored, snap):
        offline = TDAC(MajorityVote(), config=CONFIG).run(
            restored.replay_dataset(snap.watermark)
        )
        assert dict(snap.predictions) == dict(offline.result.predictions)
        assert dict(snap.source_trust) == dict(offline.result.source_trust)
        assert snap.partition == offline.partition
        assert dict(snap.silhouette_by_k) == dict(offline.silhouette_by_k)

    def test_restore_folds_the_committed_tail_into_one_fit(self, tmp_path):
        # The crashed service published one snapshot per batch; its
        # restore fits checkpoint + committed tail once and must land on
        # the same snapshot, which also equals offline TDAC.run at that
        # watermark.
        from repro.serving import TruthService

        dataset = make_synthetic("DS1", n_objects=15, seed=31).dataset
        batches = [
            [Claim(dataset.sources[0], f"r{j}-{i}", dataset.attributes[i % 3], i)
             for i in range(3)]
            for j in range(3)
        ]
        crashed = self.run_service(tmp_path, dataset, batches)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no WAL mismatch warnings
            restored = TruthService.restore(tmp_path)
        try:
            snap = restored.snapshot()
            assert snap.version == crashed.version
            assert snap.watermark == crashed.watermark
            assert snap.dataset_fingerprint == crashed.dataset_fingerprint
            assert dict(snap.predictions) == dict(crashed.predictions)
            assert dict(snap.source_trust) == dict(crashed.source_trust)
            assert snap.partition == crashed.partition
            assert dict(snap.silhouette_by_k) == dict(crashed.silhouette_by_k)
            assert snap.exact and crashed.exact
            # One fit over the whole recovered corpus, no refit.
            stats = restored.stats
            assert stats["engine"]["full_fits"] == 1
            assert stats["engine"]["delta_updates"] == 0
            assert stats["refits_incremental"] == 0
            self.assert_is_offline_run(restored, snap)
        finally:
            restored.stop()

    def test_unsettled_admits_settle_one_at_a_time(self, tmp_path):
        # A committed tail, then two admits the crash left without an
        # outcome: a fresh one (applied and committed) and a conflicting
        # one (aborted on its own).  A second restore replays nothing
        # and lands on the same snapshot.
        from repro.observability import SpanTracer
        from repro.serving import TruthService
        from repro.store import TruthStore

        dataset = make_synthetic("DS1", n_objects=15, seed=31).dataset
        batches = [
            [Claim(dataset.sources[1], f"t{j}-{i}", dataset.attributes[i], "v")
             for i in range(2)]
            for j in range(2)
        ]
        crashed = self.run_service(tmp_path, dataset, batches)
        known = next(iter(dataset.iter_claims()))
        fresh = [Claim(dataset.sources[2], "u0", dataset.attributes[0], "w")]
        clash = [Claim(known.source, known.object, known.attribute, "clash")]
        store = TruthStore(tmp_path)
        store.append_admit(crashed.watermark, fresh)
        store.append_admit(crashed.watermark + 1, clash)
        store.close()

        restored = TruthService.restore(tmp_path)
        try:
            snap = restored.snapshot()
            assert snap.version == crashed.version + 1
            assert snap.watermark == crashed.watermark + 1
            assert restored.claim_log[-1] == fresh[0]
            self.assert_is_offline_run(restored, snap)
        finally:
            restored.stop(checkpoint=False)
        records = [r.type for r in TruthStore(tmp_path).wal.scan().records]
        assert records[-2:] == ["commit", "abort"]

        tracer = SpanTracer()
        again = TruthService.restore(tmp_path, tracer=tracer)
        try:
            assert tracer.counters["store.replayed_claims"] == 0
            second = again.snapshot()
            assert again.claim_log == ()
            assert second.version == snap.version
            assert second.watermark == snap.watermark
            assert second.dataset_fingerprint == snap.dataset_fingerprint
            assert dict(second.predictions) == dict(snap.predictions)
            assert second.partition == snap.partition
        finally:
            again.stop()
