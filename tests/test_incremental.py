"""Unit tests for the incremental TD-AC wrapper."""

import pytest

from repro.algorithms import MajorityVote
from repro.core import IncrementalTDAC, TDACConfig
from repro.data import Claim, DataError, Fact
from repro.datasets import make_synthetic


@pytest.fixture
def fitted():
    generated = make_synthetic("DS1", n_objects=25, seed=9)
    incremental = IncrementalTDAC(MajorityVote(), config=TDACConfig(seed=0))
    outcome = incremental.fit(generated.dataset)
    return incremental, generated.dataset, outcome


class TestFit:
    def test_initial_fit_matches_tdac(self, fitted):
        incremental, dataset, outcome = fitted
        assert incremental.partition == outcome.partition
        assert incremental.stats["full_fits"] == 1

    def test_update_before_fit_raises(self):
        incremental = IncrementalTDAC(MajorityVote())
        with pytest.raises(RuntimeError):
            incremental.update([])


class TestUpdate:
    def test_empty_batch_is_noop(self, fitted):
        incremental, dataset, _ = fitted
        before = incremental.stats["block_refreshes"]
        result = incremental.update([])
        assert incremental.stats["block_refreshes"] == before
        assert len(result.predictions) == len(dataset.facts)

    def test_small_batch_refreshes_only_touched_block(self, fitted):
        incremental, dataset, _ = fitted
        touched_attribute = incremental.partition.blocks[0][0]
        batch = [
            Claim(dataset.sources[0], "new-object", touched_attribute, "nv")
        ]
        before = incremental.stats["block_refreshes"]
        result = incremental.update(batch)
        refreshed = incremental.stats["block_refreshes"] - before
        assert refreshed == 1  # only the touched block
        assert result.predictions[Fact("new-object", touched_attribute)] == "nv"

    def test_untouched_blocks_keep_predictions(self, fitted):
        incremental, dataset, outcome = fitted
        untouched_block = incremental.partition.blocks[-1]
        baseline = {
            fact: value
            for fact, value in outcome.predictions.items()
            if fact.attribute in set(untouched_block)
        }
        touched_attribute = incremental.partition.blocks[0][0]
        incremental.update(
            [Claim(dataset.sources[0], "x", touched_attribute, "v")]
        )
        refreshed = incremental.update([])
        for fact, value in baseline.items():
            assert refreshed.predictions[fact] == value

    def test_new_attribute_joins_certified_partition(self, fitted):
        # New attributes are no longer parked in a synthetic block: the
        # delta path re-certifies the partition with a cold sweep, so
        # the attribute lands exactly where offline TD-AC would put it.
        from repro.core import TDAC, TDACConfig

        incremental, dataset, _ = fitted
        batch = [
            Claim(dataset.sources[0], "o1", "brand-new-attr", 1),
            Claim(dataset.sources[1], "o1", "brand-new-attr", 1),
        ]
        result = incremental.update(batch)
        covered = {a for block in incremental.partition.blocks for a in block}
        assert "brand-new-attr" in covered
        offline = TDAC(MajorityVote(), config=TDACConfig(seed=0)).run(
            incremental.dataset
        )
        assert incremental.partition == offline.partition
        assert result.predictions[Fact("o1", "brand-new-attr")] == 1

    def test_large_batch_triggers_repartition(self, fitted):
        incremental, dataset, _ = fitted
        attribute = dataset.attributes[0]
        big_batch = [
            Claim(dataset.sources[0], f"bulk-{i}", attribute, f"v{i}")
            for i in range(int(dataset.n_claims * 0.3))
        ]
        incremental.update(big_batch)
        assert incremental.stats["full_fits"] == 2
        assert incremental.stats["claims_since_fit"] == 0

    def test_conflicting_claim_rejected(self, fitted):
        incremental, dataset, _ = fitted
        existing = next(dataset.iter_claims())
        conflicting = Claim(
            existing.source,
            existing.object,
            existing.attribute,
            f"{existing.value}-changed",
        )
        with pytest.raises(DataError):
            incremental.update([conflicting])

    def test_repartition_fraction_validated(self):
        with pytest.raises(ValueError):
            IncrementalTDAC(MajorityVote(), repartition_fraction=0.0)
