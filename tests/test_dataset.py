"""Unit tests for the immutable Dataset container."""

import random

import pytest

from repro.data import Claim, DataError, Dataset, DatasetBuilder, Fact
from repro.data.dataset import NAN
from repro.data.types import CONTINUOUS, MULTI
from tests.oracles.fingerprint import dataset_fingerprint_loop


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


class TestOneNaN:
    """Every float NaN a dataset stores, also inside a tuple, is one
    object, so a fact has one NaN slot whatever objects came in."""

    def test_construction_and_extension_store_one_nan(self):
        ds = make(
            {("s1", "o1", "a1"): float("nan"), ("s2", "o1", "a1"): 1},
            truth={("o1", "a1"): float("nan")},
        )
        grown = ds.extended([
            Claim("s3", "o1", "a1", float("nan")),
            Claim("s3", "o1", "a2", (1, float("nan"))),
        ])
        assert ds.value("s1", "o1", "a1") is NAN
        assert ds.true_value(Fact("o1", "a1")) is NAN
        assert grown.value("s3", "o1", "a1") is NAN
        assert grown.value("s3", "o1", "a2")[1] is NAN

    def test_a_nan_claim_retried_is_a_duplicate(self):
        ds = make({("s1", "o1", "a1"): "x"})
        claim = Claim("s1", "o1", "a2", float("nan"))
        grown = ds.extended([claim])
        assert grown.extended([claim]) is grown
        assert grown.extended([Claim("s1", "o1", "a2", float("nan"))]) is grown
        builder = DatasetBuilder().add_claim("s1", "o1", "a1", float("nan"))
        builder.add_claim("s1", "o1", "a1", float("nan"))
        assert builder.build().value("s1", "o1", "a1") is NAN


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


#: Identifiers that stress the piece order: quotes, parentheses, commas,
#: backslashes, the claim separator, non-ASCII and the empty string.
TRICKY = ["", "a", "a'", 'a"', "a'\"", "a(", "a)", "a,", "a, 'b'", "a\\",
          "a\x1f", "a\x1e", "é", "日本", "a b", "(", ")", "'", ","]


def tricky_claims(n_sources=6, seed=0):
    rng = random.Random(seed)
    values = ["x", "it's", 'say "hi"', 3, -1, 2.5, float("inf"), None,
              ("t", 1), (), "é", ""]
    sources = TRICKY[:n_sources]
    claims = {}
    for s in sources:
        for o in TRICKY:
            for a in rng.sample(TRICKY, 4):
                claims[(s, o, a)] = rng.choice(values)
    return claims


class TestFingerprint:
    """Every digest, from scratch or carried by ``extended``, equals the
    per-claim loop in :mod:`tests.oracles.fingerprint`."""

    def test_tricky_identifiers_and_values(self):
        ds = make(tricky_claims())
        assert ds.fingerprint == dataset_fingerprint_loop(ds)

    def test_typed_attributes(self):
        types = {"a": CONTINUOUS, "é": MULTI}
        ds = make(tricky_claims(), attribute_types=types)
        assert ds.has_typed_attributes
        assert ds.fingerprint == dataset_fingerprint_loop(ds)
        grown = ds.extended([Claim("new", "o", "a", 1.5)])
        assert grown.fingerprint == dataset_fingerprint_loop(grown)

    def test_extended_chain(self):
        rng = random.Random(1)
        claims = tricky_claims(n_sources=3)
        parent = make(claims)
        parent.fingerprint
        # Small batches take the insertion path, the last two the sort.
        sizes = [1, 2, 5, 3, 200, 1000]
        ds = parent
        for step, size in enumerate(sizes):
            batch = {}
            for j in range(size):
                s = rng.choice(TRICKY + [f"src-{step}"])
                o = rng.choice(TRICKY + [f"obj-{step}-{j}", "é" * (j % 3)])
                a = rng.choice(TRICKY + [f"attr-{step}"])
                if (s, o, a) not in ds.claims:
                    batch[s, o, a] = rng.choice(["v", 2, None])
            batch = [Claim(*key, value) for key, value in batch.items()]
            grown = ds.extended(batch)
            assert grown.fingerprint == dataset_fingerprint_loop(grown)
            # A duplicate-only batch returns the dataset itself; a second
            # child of the same parent must not see the first one's pieces.
            assert grown.extended(batch[:3]) is grown
            sibling = ds.extended(batch[:3])
            assert sibling.fingerprint == dataset_fingerprint_loop(sibling)
            ds = grown
        assert len(ds.sources) > len(parent.sources)
        assert len(ds.attributes) > len(parent.attributes)
        assert parent.fingerprint == dataset_fingerprint_loop(parent)

    def test_parent_never_fingerprinted(self):
        parent = make(BASIC)
        child = parent.extended(
            [Claim("s3", "o3", "a3", "w"), Claim("s1", "o2", "a1", 4)]
        )
        grandchild = child.extended([Claim("s2", "o3", "a3", "w")])
        for ds in (grandchild, child, parent):
            assert ds.fingerprint == dataset_fingerprint_loop(ds)

    def test_reasserted_none_value_adds_no_piece(self):
        ds = make({("s1", "o1", "a1"): None, ("s2", "o1", "a1"): "x"})
        ds.claims_per_attribute  # cache the counts extended carries
        assert ds.extended([Claim("s1", "o1", "a1", None)]) is ds
        with pytest.raises(DataError):
            ds.extended([Claim("s1", "o1", "a1", "x")])
        child = ds.extended(
            [Claim("s3", "o1", "a1", None), Claim("s3", "o1", "a1", None)]
        )
        assert len(child) == 3
        assert dict(child.claims_per_attribute) == {"a1": 3}
        assert child.fingerprint == dataset_fingerprint_loop(child)

    def test_fingerprint_alone_keeps_no_pieces(self):
        # Offline passes only read fingerprints; the sorted pieces are
        # streaming state and must not stay on such a dataset.
        ds = make(BASIC)
        ds.fingerprint
        assert ds._pieces is None
        child = ds.extended([Claim("s1", "o2", "a1", "x")])
        assert ds._pieces is not None and child._pieces is not None
        assert ds._pieces is not child._pieces
        assert len(child._pieces) == len(ds._pieces) + 1
