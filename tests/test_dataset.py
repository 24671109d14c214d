"""Unit tests for the immutable Dataset container."""

import pytest

from repro.data import Claim, DataError, Dataset, Fact


def make(claims, truth=None, **kwargs):
    sources = sorted({s for s, _, _ in claims})
    objects = sorted({o for _, o, _ in claims})
    attributes = sorted({a for _, _, a in claims})
    return Dataset(sources, objects, attributes, claims, truth, **kwargs)


BASIC = {
    ("s1", "o1", "a1"): "x",
    ("s2", "o1", "a1"): "y",
    ("s1", "o1", "a2"): "u",
    ("s2", "o2", "a1"): "z",
}


class TestConstruction:
    def test_sizes(self):
        ds = make(BASIC)
        assert len(ds) == 4
        assert ds.n_claims == 4
        assert ds.sources == ("s1", "s2")
        assert ds.attributes == ("a1", "a2")

    def test_rejects_unknown_source(self):
        with pytest.raises(DataError, match="unknown source"):
            Dataset(["s1"], ["o1"], ["a1"], {("sX", "o1", "a1"): 1})

    def test_rejects_unknown_object(self):
        with pytest.raises(DataError, match="unknown object"):
            Dataset(["s1"], ["o1"], ["a1"], {("s1", "oX", "a1"): 1})

    def test_rejects_unknown_attribute(self):
        with pytest.raises(DataError, match="unknown attribute"):
            Dataset(["s1"], ["o1"], ["a1"], {("s1", "o1", "aX"): 1})

    def test_rejects_duplicate_sources(self):
        with pytest.raises(DataError, match="duplicate source"):
            Dataset(["s1", "s1"], ["o1"], ["a1"], {})

    def test_rejects_truth_for_unknown_fact(self):
        with pytest.raises(DataError, match="unknown fact"):
            Dataset(["s1"], ["o1"], ["a1"], {}, truth={("oX", "a1"): 1})


class TestAccess:
    def test_value_lookup(self):
        ds = make(BASIC)
        assert ds.value("s1", "o1", "a1") == "x"
        assert ds.value("s2", "o2", "a2") is None

    def test_facts_cover_only_claimed_slots(self):
        ds = make(BASIC)
        assert set(ds.facts) == {
            Fact("o1", "a1"),
            Fact("o1", "a2"),
            Fact("o2", "a1"),
        }

    def test_facts_order_is_object_major(self):
        ds = make(BASIC)
        assert ds.facts == (
            Fact("o1", "a1"),
            Fact("o1", "a2"),
            Fact("o2", "a1"),
        )

    def test_claims_by_fact_in_source_order(self):
        ds = make(BASIC)
        claims = ds.claims_by_fact[Fact("o1", "a1")]
        assert [c.source for c in claims] == ["s1", "s2"]

    def test_values_for_distinct_in_first_seen_order(self):
        claims = dict(BASIC)
        claims[("s3", "o1", "a1")] = "x"  # duplicate value of s1
        ds = make(claims)
        assert ds.values_for(Fact("o1", "a1")) == ("x", "y")

    def test_sources_for(self):
        ds = make(BASIC)
        assert ds.sources_for(Fact("o1", "a1")) == ("s1", "s2")

    def test_iter_claims_roundtrip(self):
        ds = make(BASIC)
        seen = {(c.source, c.object, c.attribute): c.value for c in ds.iter_claims()}
        assert seen == BASIC


class TestTruth:
    def test_true_value(self):
        ds = make(BASIC, truth={("o1", "a1"): "x"})
        assert ds.true_value(Fact("o1", "a1")) == "x"
        assert ds.true_value(Fact("o2", "a1")) is None
        assert ds.has_truth

    def test_with_truth_attaches(self):
        ds = make(BASIC)
        assert not ds.has_truth
        enriched = ds.with_truth({("o1", "a1"): "x"})
        assert enriched.has_truth
        assert not ds.has_truth  # original untouched


class TestRestriction:
    def test_restrict_attributes_drops_claims(self):
        ds = make(BASIC, truth={("o1", "a1"): "x", ("o1", "a2"): "u"})
        sub = ds.restrict_attributes(["a1"])
        assert sub.attributes == ("a1",)
        assert sub.n_claims == 3
        assert sub.truth == {("o1", "a1"): "x"}
        # Sources and objects are preserved for index alignment.
        assert sub.sources == ds.sources
        assert sub.objects == ds.objects

    def test_restrict_attributes_keeps_order(self):
        ds = make(BASIC)
        sub = ds.restrict_attributes(["a2", "a1"])
        assert sub.attributes == ("a1", "a2")

    def test_restrict_unknown_attribute_raises(self):
        ds = make(BASIC)
        with pytest.raises(DataError, match="unknown attributes"):
            ds.restrict_attributes(["nope"])

    def test_restrict_sources(self):
        ds = make(BASIC)
        sub = ds.restrict_sources(["s1"])
        assert sub.sources == ("s1",)
        assert sub.n_claims == 2

    def test_restrict_unknown_source_raises(self):
        ds = make(BASIC)
        with pytest.raises(DataError, match="unknown sources"):
            ds.restrict_sources(["sX"])

    def test_renamed(self):
        ds = make(BASIC).renamed("other")
        assert ds.name == "other"


class TestClaimsPerAttribute:
    def test_counts_every_attribute(self):
        ds = make(BASIC)
        assert dict(ds.claims_per_attribute) == {"a1": 3, "a2": 1}

    def test_read_only(self):
        ds = make(BASIC)
        with pytest.raises(TypeError):
            ds.claims_per_attribute["a1"] = 0

    def test_extended_carries_counts_forward(self):
        parent = make(BASIC)
        parent.claims_per_attribute  # cache the parent's counts
        fresh = [
            Claim("s1", "o2", "a1", "x"),  # new claim, known attribute
            Claim("s1", "o1", "a1", "x"),  # duplicate: a no-op
            Claim("s3", "o3", "a3", "w"),  # new source, object, attribute
            Claim("s2", "o3", "a3", "w"),
        ]
        child = parent.extended(fresh)
        assert "claims_per_attribute" in child.__dict__
        fresh_count = Dataset(
            child.sources, child.objects, child.attributes, child.claims
        ).claims_per_attribute
        assert dict(child.claims_per_attribute) == dict(fresh_count)
        assert dict(child.claims_per_attribute) == {"a1": 4, "a2": 1, "a3": 2}
        assert list(child.claims_per_attribute) == list(child.attributes)
        assert dict(parent.claims_per_attribute) == {"a1": 3, "a2": 1}

    def test_extended_without_cached_parent_counts_lazily(self):
        parent = make(BASIC)
        child = parent.extended([Claim("s1", "o2", "a1", "x")])
        assert "claims_per_attribute" not in child.__dict__
        assert dict(child.claims_per_attribute) == {"a1": 4, "a2": 1}
