"""Unit tests for TD-OC, the object-partitioning comparator."""

import numpy as np
import pytest

from repro.algorithms import Accu, MajorityVote
from repro.core import ObjectTDAC, build_object_truth_vectors
from repro.data import DatasetBuilder
from repro.datasets import load, make_synthetic
from repro.metrics import evaluate_predictions
from tests.oracles.object_tdac import (
    object_truth_vectors_loop,
    select_groups_loop,
)


def object_correlated_dataset(n_per_topic=12, seed=0):
    """Sources specialise by *object topic*, not by attribute.

    Sports objects are answered correctly by the sports sources and
    colluded on by the news sources; news objects are the mirror image.
    Attribute partitioning cannot see this structure; object
    partitioning can.
    """
    rng = np.random.default_rng(seed)
    builder = DatasetBuilder(name="object-correlated")
    sports = [f"match{i}" for i in range(n_per_topic)]
    news = [f"story{i}" for i in range(n_per_topic)]
    sources = {
        "sport1": "sports",
        "sport2": "sports",
        "sport3": "sports",
        "news1": "news",
        "news2": "news",
    }
    for obj in sports + news:
        topic = "sports" if obj.startswith("match") else "news"
        for attribute in ("a1", "a2"):
            truth = f"{obj}-{attribute}-true"
            builder.set_truth(obj, attribute, truth)
            for source, speciality in sources.items():
                good = speciality == topic
                if good or rng.random() < 0.2:
                    value = truth
                else:
                    # Per-source wrong values: mistakes do not collude,
                    # so the majority-vote reference stays clean.
                    value = f"{obj}-{attribute}-wrong-{source}"
                builder.add_claim(source, obj, attribute, value)
    return builder.build()


class TestObjectTruthVectors:
    def test_shape(self, tiny_dataset):
        vectors = build_object_truth_vectors(tiny_dataset, MajorityVote())
        n_ranks = len(tiny_dataset.attributes) * len(tiny_dataset.sources)
        assert vectors.matrix.shape == (len(tiny_dataset.objects), n_ranks)

    def test_binary_and_masked(self, tiny_dataset):
        vectors = build_object_truth_vectors(tiny_dataset, MajorityVote())
        assert set(np.unique(vectors.matrix)) <= {0, 1}
        assert not vectors.matrix[~vectors.mask].any()


class TestObjectTDAC:
    def test_groups_follow_topics(self):
        dataset = object_correlated_dataset()
        outcome = ObjectTDAC(MajorityVote(), k_max=4, seed=0).run(dataset)
        # Find the group holding match0; it should be mostly matches.
        for group in outcome.groups:
            kinds = {o.startswith("match") for o in group}
            # Groups should be topic-pure (or nearly: one odd object).
            assert len(kinds) == 1 or min(
                sum(o.startswith("match") for o in group),
                sum(not o.startswith("match") for o in group),
            ) <= 1

    def test_improves_base_on_object_correlated_data(self):
        dataset = object_correlated_dataset()
        flat = evaluate_predictions(
            dataset, Accu().discover(dataset).predictions
        ).accuracy
        outcome = ObjectTDAC(Accu(), k_max=4, seed=0).run(dataset)
        partitioned = evaluate_predictions(
            dataset, outcome.predictions
        ).accuracy
        assert partitioned >= flat - 1e-9

    def test_predictions_cover_all_facts(self):
        dataset = object_correlated_dataset()
        outcome = ObjectTDAC(MajorityVote(), k_max=4, seed=0).run(dataset)
        assert set(outcome.predictions) == set(dataset.facts)

    def test_single_object_degrades_gracefully(self):
        builder = DatasetBuilder()
        builder.add_claim("s1", "o", "a", 1)
        builder.add_claim("s2", "o", "a", 2)
        outcome = ObjectTDAC(MajorityVote(), seed=0).run(builder.build())
        assert outcome.groups == (("o",),)
        assert outcome.silhouette_by_k == {}

    def test_name(self):
        assert ObjectTDAC(MajorityVote()).name == "TD-OC (F=MajorityVote)"

    def test_k_min_validated(self):
        with pytest.raises(ValueError):
            ObjectTDAC(MajorityVote(), k_min=1)


def _single_object_dataset():
    builder = DatasetBuilder()
    builder.add_claim("s1", "o", "a", 1)
    builder.add_claim("s2", "o", "a", 2)
    return builder.build()


def _identical_objects_dataset():
    # Every object has the same vector, so every k collapses to one
    # label: each silhouette is the degenerate -1 and TD-OC keeps one
    # group.
    builder = DatasetBuilder()
    for i in range(5):
        for source in ("s1", "s2", "s3"):
            builder.add_claim(source, f"o{i}", "a", "v")
    return builder.build()


class TestMatchesLoopOracles:
    """TD-OC's regrouped vectors and shared k-sweep equal the loops."""

    @pytest.mark.parametrize(
        "make, k_max",
        [
            pytest.param(object_correlated_dataset, 4, id="topics"),
            pytest.param(
                lambda: load("DS1", scale=0.08), 6, id="DS1-0.08"
            ),
            pytest.param(
                lambda: make_synthetic("DS2", n_objects=12, seed=2).dataset,
                None,
                id="DS2-synthetic",
            ),
            pytest.param(_single_object_dataset, None, id="one-object"),
            pytest.param(
                _identical_objects_dataset, None, id="identical-objects"
            ),
        ],
    )
    def test_bit_identical(self, make, k_max):
        dataset = make()
        reference = MajorityVote().discover(dataset)
        vectors = build_object_truth_vectors(dataset, reference)
        expected = object_truth_vectors_loop(dataset, reference)
        assert vectors.objects == expected.objects
        assert vectors.matrix.dtype == expected.matrix.dtype
        np.testing.assert_array_equal(vectors.matrix, expected.matrix)
        np.testing.assert_array_equal(vectors.mask, expected.mask)

        tdoc = ObjectTDAC(MajorityVote(), k_max=k_max, seed=0)
        outcome = tdoc.run(dataset)
        groups, silhouettes = select_groups_loop(tdoc, expected)
        assert outcome.groups == groups
        assert outcome.silhouette_by_k == silhouettes
