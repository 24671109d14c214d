"""Unit tests for DatasetBuilder."""

import pytest

from repro.data import Claim, DataError, DatasetBuilder


class TestAddClaim:
    def test_universe_inferred_in_first_seen_order(self):
        builder = DatasetBuilder()
        builder.add_claim("s2", "o1", "a1", 1)
        builder.add_claim("s1", "o1", "a2", 2)
        ds = builder.build()
        assert ds.sources == ("s2", "s1")
        assert ds.attributes == ("a1", "a2")

    def test_declared_order_wins(self):
        builder = DatasetBuilder()
        builder.declare_sources(["s1", "s2"])
        builder.add_claim("s2", "o1", "a1", 1)
        assert builder.build().sources == ("s1", "s2")

    def test_conflicting_claim_rejected(self):
        builder = DatasetBuilder()
        builder.add_claim("s1", "o1", "a1", 1)
        with pytest.raises(DataError, match="two values"):
            builder.add_claim("s1", "o1", "a1", 2)
        # A None value is a claimed value too, not an absent claim.
        builder.add_claim("s1", "o1", "a2", None)
        with pytest.raises(DataError, match="two values"):
            builder.add_claim("s1", "o1", "a2", 2)

    def test_same_claim_twice_is_noop(self):
        builder = DatasetBuilder()
        builder.add_claim("s1", "o1", "a1", 1)
        builder.add_claim("s1", "o1", "a1", 1)
        assert builder.n_claims == 1

    def test_add_claims_bulk(self):
        builder = DatasetBuilder()
        builder.add_claims(
            [Claim("s1", "o1", "a1", 1), Claim("s2", "o1", "a1", 2)]
        )
        assert builder.n_claims == 2

    def test_chaining(self):
        ds = (
            DatasetBuilder(name="chained")
            .add_claim("s1", "o1", "a1", 1)
            .set_truth("o1", "a1", 1)
            .build()
        )
        assert ds.name == "chained"
        assert ds.has_truth


class TestBuild:
    def test_empty_build_rejected(self):
        with pytest.raises(DataError, match="no claims"):
            DatasetBuilder().build()

    def test_truth_only_facts_are_allowed(self):
        builder = DatasetBuilder()
        builder.add_claim("s1", "o1", "a1", 1)
        builder.set_truth("o2", "a1", 5)  # no claims about o2
        ds = builder.build()
        assert ds.truth == {("o2", "a1"): 5}

    def test_set_truths_bulk(self):
        builder = DatasetBuilder()
        builder.add_claim("s1", "o1", "a1", 1)
        builder.set_truths({("o1", "a1"): 1})
        assert builder.build().has_truth
