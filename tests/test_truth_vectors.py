"""Unit tests for attribute truth vectors (paper Eq. 1 and Table 2).

The slot-level construction is pinned cell for cell against the
per-claim loop it replaced (``tests/oracles/truth_vectors.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms import Accu, MajorityVote, TruthDiscoveryResult
from repro.core import build_truth_vectors
from repro.data import Dataset, DatasetBuilder, Fact
from repro.datasets import load
from tests.oracles.truth_vectors import build_truth_vectors_loop
from tests.strategies import ADVERSARIAL_VALUES, NAN, claim_datasets


def oracle_result(dataset):
    """A reference result that predicts the exact ground truth."""
    predictions = {
        fact: dataset.true_value(fact) for fact in dataset.facts
    }
    return TruthDiscoveryResult(
        algorithm="oracle",
        predictions=predictions,
        confidence={fact: 1.0 for fact in dataset.facts},
        source_trust={s: 1.0 for s in dataset.sources},
        iterations=1,
        elapsed_seconds=0.0,
    )


class TestTable2:
    """Reproduce the matrix of Table 2 for the Table 1 running example.

    With the correct answers as reference truth, the matrix rows (Q1,
    Q2, Q3) over ranks (FB, CS) x (Source 1..3) match the paper's
    Table 2 published for TruthFinder as base algorithm.
    """

    def test_matrix_matches_paper(self, running_example):
        vectors = build_truth_vectors(
            running_example, oracle_result(running_example)
        )
        # Ranks are object-major: FB x (S1, S2, S3) then CS x (S1, S2, S3).
        # Table 2 columns are source-major; translate accordingly.
        def entry(question, obj, source_idx):
            row = vectors.vector(question)
            objects = running_example.objects
            sources = running_example.sources
            col = objects.index(obj) * len(sources) + source_idx
            return int(row[col])

        # Source 1: FB: Q1 right, Q2 wrong, Q3 wrong(12 vs 11)... Table 1
        # says S1 FB = (Algeria, 2000, 12): Q1 correct only.
        assert entry("Q1", "FB", 0) == 1
        assert entry("Q2", "FB", 0) == 0
        assert entry("Q3", "FB", 0) == 0
        # Source 2 FB = (Senegal, 2019, 11): Q2, Q3 correct.
        assert entry("Q1", "FB", 1) == 0
        assert entry("Q2", "FB", 1) == 1
        assert entry("Q3", "FB", 1) == 1
        # Source 1 CS = (Linus Torvalds, 1830, 7): Q1, Q3 correct.
        assert entry("Q1", "CS", 0) == 1
        assert entry("Q2", "CS", 0) == 0
        assert entry("Q3", "CS", 0) == 1
        # Source 3 CS = (Steve Jobs, 1991, 10): Q2 correct only.
        assert entry("Q1", "CS", 2) == 0
        assert entry("Q2", "CS", 2) == 1
        assert entry("Q3", "CS", 2) == 0


class TestBuildTruthVectors:
    def test_shape(self, running_example):
        vectors = build_truth_vectors(running_example, MajorityVote())
        n_ranks = len(running_example.objects) * len(running_example.sources)
        assert vectors.matrix.shape == (3, n_ranks)
        assert vectors.mask.shape == vectors.matrix.shape
        assert vectors.n_attributes == 3

    def test_accepts_algorithm_or_result(self, running_example):
        from_algorithm = build_truth_vectors(running_example, MajorityVote())
        reference = MajorityVote().discover(running_example)
        from_result = build_truth_vectors(running_example, reference)
        assert (from_algorithm.matrix == from_result.matrix).all()

    def test_mask_marks_covered_ranks(self):
        builder = DatasetBuilder()
        builder.add_claim("s1", "o1", "a1", 1)
        builder.add_claim("s2", "o1", "a1", 2)
        builder.add_claim("s1", "o2", "a1", 3)  # s2 misses o2
        vectors = build_truth_vectors(builder.build(), MajorityVote())
        # Ranks: (o1, s1), (o1, s2), (o2, s1), (o2, s2).
        assert vectors.mask.tolist() == [[True, True, True, False]]

    def test_matrix_zero_where_unobserved(self, running_example):
        vectors = build_truth_vectors(running_example, MajorityVote())
        assert not vectors.matrix[~vectors.mask].any()

    def test_density(self, running_example):
        vectors = build_truth_vectors(running_example, MajorityVote())
        assert vectors.density() == pytest.approx(1.0)

    def test_vector_lookup_unknown_attribute(self, running_example):
        vectors = build_truth_vectors(running_example, MajorityVote())
        with pytest.raises(KeyError):
            vectors.vector("nope")

    def test_binary_entries_only(self, running_example):
        vectors = build_truth_vectors(running_example, MajorityVote())
        assert set(np.unique(vectors.matrix)) <= {0, 1}


def predicting(dataset, predictions):
    """A reference result with the given fact -> value predictions."""
    return TruthDiscoveryResult(
        algorithm="fixed",
        predictions=predictions,
        confidence={fact: 1.0 for fact in predictions},
        source_trust={s: 1.0 for s in dataset.sources},
        iterations=1,
        elapsed_seconds=0.0,
    )


def assert_matches_loop(dataset, reference):
    fast = build_truth_vectors(dataset, reference)
    loop = build_truth_vectors_loop(dataset, reference)
    assert fast.matrix.dtype == loop.matrix.dtype
    np.testing.assert_array_equal(fast.matrix, loop.matrix)
    np.testing.assert_array_equal(fast.mask, loop.mask)
    assert fast.ranks == loop.ranks
    assert fast.attributes == loop.attributes
    return fast


class TestMatchesClaimLoop:
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
        dataset = load(name, seed=0, scale=scale)
        for base in (MajorityVote(), Accu()):
            assert_matches_loop(dataset, base.discover(dataset))

    def test_partial_predictions_and_unclaimed_values(self):
        dataset = load("DS2", seed=0, scale=0.05)
        predictions = {
            fact: dataset.true_value(fact) for fact in dataset.facts[::2]
        }
        predictions[dataset.facts[1]] = "nobody said this"
        predictions[Fact("no such object", "a1")] = "v"
        reference = predicting(dataset, predictions)
        vectors = assert_matches_loop(dataset, reference)
        assert vectors.matrix.any()

    def test_empty_dataset(self):
        dataset = Dataset([], [], [], {})
        vectors = assert_matches_loop(dataset, predicting(dataset, {}))
        assert vectors.matrix.shape == (0, 0)

    def test_adversarial_predictions(self):
        claims = {
            ("s1", "o", "a"): 1,
            ("s2", "o", "a"): True,
            ("s3", "o", "a"): 2,
            ("s1", "o", "b"): NAN,
            ("s2", "o", "b"): float("nan"),
            ("s3", "o", "b"): None,
            ("s1", "p", "a"): (1, "é"),
            ("s2", "p", "a"): ("ü",),
        }
        dataset = Dataset(["s1", "s2", "s3"], ["o", "p"], ["a", "b"], claims)
        predictions = {
            Fact("o", "a"): 1.0,
            Fact("o", "b"): NAN,
            Fact("p", "a"): (True, "é"),
        }
        reference = predicting(dataset, predictions)
        vectors = assert_matches_loop(dataset, reference)
        # 1 and True confirm a 1.0 prediction.  Cells compare by ``==``,
        # so a NaN prediction confirms no claim, not even its own object,
        # and a None claim is never confirmed.
        assert vectors.vector("a").tolist() == [1, 1, 0, 1, 0, 0]
        assert vectors.vector("b").tolist() == [0, 0, 0, 0, 0, 0]

    @settings(max_examples=100, deadline=None)
    @given(claim_datasets())
    def test_random_adversarial_datasets(self, dataset):
        values = ADVERSARIAL_VALUES + ("unclaimed",)
        predictions = {
            fact: values[i % len(values)]
            for i, fact in enumerate(dataset.facts)
        }
        assert_matches_loop(dataset, predicting(dataset, predictions))
        assert_matches_loop(dataset, MajorityVote().discover(dataset))
