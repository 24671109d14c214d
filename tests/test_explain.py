"""Unit tests for the explanation utilities."""

import pytest

from repro.algorithms import Accu, MajorityVote
from repro.core import TDAC, TDACConfig, explain_fact, explain_partition
from repro.data import Fact


class TestExplainFact:
    def test_candidates_cover_all_values(self, tiny_dataset):
        result = MajorityVote().discover(tiny_dataset)
        fact = Fact("o1", "a")
        explanation = explain_fact(tiny_dataset, result, fact)
        assert {c.value for c in explanation.candidates} == set(
            tiny_dataset.values_for(fact)
        )
        assert explanation.elected == result.predictions[fact]

    def test_exactly_one_elected(self, tiny_dataset):
        result = MajorityVote().discover(tiny_dataset)
        explanation = explain_fact(tiny_dataset, result, Fact("o1", "a"))
        assert sum(c.elected for c in explanation.candidates) == 1

    def test_margin_positive_for_trusted_majority(self, small_ds1):
        dataset = small_ds1.dataset
        result = Accu().discover(dataset)
        fact = dataset.facts[0]
        explanation = explain_fact(dataset, result, fact)
        assert explanation.margin() == pytest.approx(explanation.margin())

    def test_render_mentions_sources(self, tiny_dataset):
        result = MajorityVote().discover(tiny_dataset)
        text = explain_fact(tiny_dataset, result, Fact("o1", "a")).render()
        assert "s1" in text
        assert "*" in text  # elected marker

    def test_unknown_fact_raises(self, tiny_dataset):
        result = MajorityVote().discover(tiny_dataset)
        with pytest.raises(KeyError):
            explain_fact(tiny_dataset, result, Fact("nope", "a"))


class TestExplainPartition:
    def test_separation_on_structured_data(self, small_ds1):
        dataset = small_ds1.dataset
        outcome = TDAC(Accu(), config=TDACConfig(seed=0)).run(dataset)
        explanation = explain_partition(outcome.truth_vectors, outcome.partition)
        # TD-AC's chosen blocks should be far better separated than mixed.
        assert explanation.separation_ratio > 1.5
        assert "separation ratio" in explanation.render()

    def test_single_block_partition(self, small_ds1):
        from repro.core import Partition, build_truth_vectors

        dataset = small_ds1.dataset
        vectors = build_truth_vectors(dataset, MajorityVote())
        whole = Partition.whole(dataset.attributes)
        explanation = explain_partition(vectors, whole)
        assert explanation.mean_across_distance == 0.0
