"""Unit and property tests for the compiled DatasetIndex and segment ops.

The vectorised compile is pinned array for array against the per-fact
loop it replaced (``tests/oracles/index.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import Dataset, DatasetBuilder, DatasetIndex, Fact
from repro.data.dataset import NAN as DATASET_NAN
from repro.data.index import (
    segment_argmax,
    segment_max,
    segment_mean,
    segment_sum,
)
from repro.datasets import load
from tests.oracles.index import dataset_index_loop
from tests.strategies import NAN, OTHER_NAN, claim_datasets


def segments_strategy():
    """Random (values, starts) pairs describing contiguous segments."""
    return st.lists(
        st.lists(st.floats(-100, 100), min_size=1, max_size=6),
        min_size=1,
        max_size=8,
    )


class TestSegmentOps:
    @given(segments_strategy())
    def test_segment_sum_matches_python(self, groups):
        values = np.array([v for g in groups for v in g])
        starts = np.cumsum([0] + [len(g) for g in groups])
        expected = [sum(g) for g in groups]
        assert np.allclose(segment_sum(values, starts), expected)

    @given(segments_strategy())
    def test_segment_max_matches_python(self, groups):
        values = np.array([v for g in groups for v in g])
        starts = np.cumsum([0] + [len(g) for g in groups])
        expected = [max(g) for g in groups]
        assert np.allclose(segment_max(values, starts), expected)

    @given(segments_strategy())
    def test_segment_mean_matches_python(self, groups):
        values = np.array([v for g in groups for v in g])
        starts = np.cumsum([0] + [len(g) for g in groups])
        expected = [sum(g) / len(g) for g in groups]
        assert np.allclose(segment_mean(values, starts), expected)

    @given(segments_strategy())
    def test_segment_argmax_is_first_maximum(self, groups):
        values = np.array([v for g in groups for v in g])
        starts = np.cumsum([0] + [len(g) for g in groups])
        result = segment_argmax(values, starts)
        offset = 0
        for g_id, group in enumerate(groups):
            expected = offset + group.index(max(group))
            assert result[g_id] == expected
            offset += len(group)

    def test_empty_values(self):
        starts = np.array([0])
        assert len(segment_sum(np.array([]), starts)) == 0


@pytest.fixture
def index(tiny_dataset):
    return DatasetIndex(tiny_dataset)


class TestDatasetIndex:
    def test_shapes(self, index, tiny_dataset):
        assert index.n_sources == len(tiny_dataset.sources)
        assert index.n_facts == len(tiny_dataset.facts)
        assert index.n_claims == tiny_dataset.n_claims
        assert index.n_slots == len(index.slot_values)

    def test_slots_grouped_by_fact(self, index):
        assert (np.diff(index.slot_fact) >= 0).all()
        starts = index.fact_slot_start
        assert starts[0] == 0
        assert starts[-1] == index.n_slots

    def test_true_slot_points_at_truth(self, index, tiny_dataset):
        for f_id, fact in enumerate(index.facts):
            truth = tiny_dataset.true_value(fact)
            slot = index.true_slot[f_id]
            if truth in tiny_dataset.values_for(fact):
                assert index.slot_values[slot] == truth
            else:
                assert slot == -1

    def test_claims_per_source_counts(self, index, tiny_dataset):
        for s_id, source in enumerate(tiny_dataset.sources):
            expected = len(tiny_dataset.claims_by_source[source])
            assert index.claims_per_source[s_id] == expected

    def test_slot_scores_are_weighted_votes(self, index):
        weights = np.arange(1.0, index.n_sources + 1)
        scores = index.slot_scores(weights)
        expected = np.zeros(index.n_slots)
        for claim_id in range(index.n_claims):
            expected[index.claim_slot[claim_id]] += weights[
                index.claim_source[claim_id]
            ]
        assert np.allclose(scores, expected)

    def test_normalize_per_fact_sums_to_one(self, index):
        scores = np.random.default_rng(0).random(index.n_slots) + 0.1
        normalized = index.normalize_per_fact(scores)
        sums = segment_sum(normalized, index.fact_slot_start)
        assert np.allclose(sums, 1.0)

    def test_softmax_per_fact_sums_to_one(self, index):
        scores = np.random.default_rng(0).normal(size=index.n_slots) * 50
        soft = index.softmax_per_fact(scores)
        sums = segment_sum(soft, index.fact_slot_start)
        assert np.allclose(sums, 1.0)
        assert (soft >= 0).all()

    def test_winning_slots_prefers_higher_score(self, index):
        scores = np.zeros(index.n_slots)
        # Make the last slot of each fact the winner.
        for f_id in range(index.n_facts):
            scores[index.fact_slot_start[f_id + 1] - 1] = 1.0
        winners = index.winning_slots(scores)
        for f_id in range(index.n_facts):
            assert winners[f_id] == index.fact_slot_start[f_id + 1] - 1

    def test_tie_break_is_deterministic(self, index):
        scores = np.zeros(index.n_slots)
        first = index.winning_slots(scores)
        second = index.winning_slots(scores)
        assert (first == second).all()

    def test_predictions_from_slots(self, index, tiny_dataset):
        winners = index.winning_slots(index.votes_per_slot)
        predictions = index.predictions_from_slots(winners)
        assert set(predictions) == set(tiny_dataset.facts)

    def test_source_mean_of_slots(self, index):
        ones = np.ones(index.n_slots)
        means = index.source_mean_of_slots(ones)
        covered = index.claims_per_source > 0
        assert np.allclose(means[covered], 1.0)


class TestSingleClaimDataset:
    def test_degenerate_dataset(self):
        ds = DatasetBuilder().add_claim("s1", "o1", "a1", 5).build()
        index = DatasetIndex(ds)
        assert index.n_slots == 1
        winners = index.winning_slots(index.votes_per_slot)
        assert index.predictions_from_slots(winners) == {Fact("o1", "a1"): 5}


# ----------------------------------------------------------------------
# The vectorised compile against the per-fact loop
# ----------------------------------------------------------------------

INDEX_ARRAYS = (
    "slot_fact",
    "fact_slot_start",
    "claim_source",
    "claim_fact",
    "claim_slot",
    "true_slot",
    "_fact_keys",
)


def loop_index(dataset):
    index = object.__new__(DatasetIndex)
    dataset_index_loop(index, dataset)
    return index


def assert_same_values(fast, loop):
    """Element-wise: same type and value (-0.0 is not 0.0; a NaN is the
    same object)."""
    assert len(fast) == len(loop)
    for a, b in zip(fast, loop):
        assert type(a) is type(b) and repr(a) == repr(b), (a, b)
        assert a is b or a == b, (a, b)


def assert_matches_loop(dataset):
    fast, loop = DatasetIndex(dataset), loop_index(dataset)
    assert fast.facts == loop.facts
    assert_same_values(fast.slot_values, loop.slot_values)
    for name in INDEX_ARRAYS:
        a, b = getattr(fast, name), getattr(loop, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    sizes = ("n_sources", "n_facts", "n_slots", "n_claims")
    assert [getattr(fast, n) for n in sizes] == [
        getattr(loop, n) for n in sizes
    ]
    return fast


class TestCompileMatchesLoop:
    @pytest.mark.parametrize(
        "name, scale",
        [
            ("DS1", 0.05),
            ("DS2", 0.05),
            ("DS3", 0.05),
            ("Exam 32", 1.0),
            ("Exam 62", 1.0),
            ("Exam 124", 1.0),
            ("Mixed", 0.1),
            ("Books", 0.2),
        ],
    )
    def test_shipped_corpora(self, name, scale):
        assert_matches_loop(load(name, seed=0, scale=scale))

    def test_partial_and_unclaimed_truth(self):
        dataset = load("DS2", seed=0, scale=0.05)
        facts = dataset.facts
        truth = {
            (f.object, f.attribute): dataset.true_value(f)
            for f in facts[::2]
        }
        # Truth no source claimed, on a covered fact and an uncovered one.
        truth[(facts[1].object, facts[1].attribute)] = "nobody said this"
        dataset = Dataset(
            dataset.sources,
            dataset.objects + ("silent",),
            dataset.attributes,
            dataset.claims,
            {**truth, ("silent", dataset.attributes[0]): "v"},
        )
        index = assert_matches_loop(dataset)
        assert index.true_slot[1] == -1
        assert (index.true_slot[::2] >= 0).any()
        assert (index.true_slot[3::2] == -1).all()

    def test_empty_dataset(self):
        index = assert_matches_loop(Dataset([], [], [], {}))
        assert index.n_facts == index.n_slots == index.n_claims == 0
        np.testing.assert_array_equal(index.fact_slot_start, [0])

    def test_equal_numbers_share_a_slot_valued_by_the_first_claim(self):
        # Source order is s3, s1, s2: True is the fact's first claim.
        claims = {
            ("s1", "o", "a"): 1,
            ("s2", "o", "a"): 1.0,
            ("s3", "o", "a"): True,
            ("s1", "p", "a"): 1.0,
            ("s2", "p", "a"): 1,
            ("s1", "q", "a"): 0.0,
            ("s3", "q", "a"): -0.0,
        }
        dataset = Dataset(
            ["s3", "s1", "s2"], ["p", "o", "q"], ["a"], claims,
            {("o", "a"): 1.0, ("q", "a"): False},
        )
        index = assert_matches_loop(dataset)
        assert index.n_slots == 3
        assert_same_values(index.slot_values, (1.0, True, -0.0))
        np.testing.assert_array_equal(index.true_slot, [-1, 1, 2])

    def test_nan_slots_follow_object_identity(self):
        claims = {
            ("s1", "o", "a"): NAN,
            ("s2", "o", "a"): NAN,
            ("s3", "o", "a"): OTHER_NAN,
            ("s1", "o", "b"): OTHER_NAN,
            ("s2", "o", "b"): None,
            ("s3", "o", "b"): None,
        }
        dataset = Dataset(
            ["s1", "s2", "s3"], ["o"], ["a", "b"], claims,
            {("o", "a"): OTHER_NAN, ("o", "b"): None},
        )
        index = assert_matches_loop(dataset)
        # The dataset stores every NaN as one object, so distinct NaN
        # claims share a slot, and a NaN truth finds it; None never does.
        assert index.slot_values[0] is DATASET_NAN
        assert index.slot_values[1] is DATASET_NAN
        np.testing.assert_array_equal(index.claim_slot, [0, 0, 0, 1, 2, 2])
        np.testing.assert_array_equal(index.true_slot, [0, -1])

    def test_tuples_and_non_ascii_strings(self):
        claims = {
            ("s1", "o", "a"): (1, "é"),
            ("s2", "o", "a"): (1.0, "é"),
            ("s3", "o", "a"): ("ü",),
            ("s1", "p", "a"): "é",
            ("s2", "p", "a"): "ü",
            ("s3", "p", "a"): "é",
        }
        dataset = Dataset(
            ["s1", "s2", "s3"], ["o", "p"], ["a"], claims,
            {("o", "a"): (True, "é"), ("p", "a"): "ü"},
        )
        index = assert_matches_loop(dataset)
        np.testing.assert_array_equal(index.claim_slot, [0, 0, 1, 2, 3, 2])
        np.testing.assert_array_equal(index.true_slot, [0, 3])

    @settings(max_examples=150, deadline=None)
    @given(claim_datasets())
    def test_random_adversarial_datasets(self, dataset):
        assert_matches_loop(dataset)
