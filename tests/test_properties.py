"""Cross-module property-based tests on randomly generated datasets.

Hypothesis builds small random claim datasets and checks the invariants
every component must hold regardless of input shape: algorithms always
predict a *claimed* value for every fact, partitions stay partitions,
the evaluation metrics stay in range, and TD-AC degrades gracefully.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import MajorityVote, Sums, TruthFinder, TwoEstimates
from repro.core import TDAC, TDACConfig, Partition, build_truth_vectors
from repro.data import DatasetBuilder
from repro.metrics import evaluate_predictions


@st.composite
def claim_datasets(draw, with_truth=True):
    """Small random datasets: 2-5 sources, 1-3 objects, 2-5 attributes."""
    n_sources = draw(st.integers(2, 5))
    n_objects = draw(st.integers(1, 3))
    n_attributes = draw(st.integers(2, 5))
    values = ["v0", "v1", "v2"]
    builder = DatasetBuilder(name="random")
    any_claim = False
    for s in range(n_sources):
        for o in range(n_objects):
            for a in range(n_attributes):
                if draw(st.booleans()):
                    value = draw(st.sampled_from(values))
                    builder.add_claim(f"s{s}", f"o{o}", f"a{a}", value)
                    any_claim = True
    if not any_claim:
        builder.add_claim("s0", "o0", "a0", "v0")
    if with_truth:
        for o in range(n_objects):
            for a in range(n_attributes):
                builder.set_truth(f"o{o}", f"a{a}", draw(st.sampled_from(values)))
    return builder.build()


COMMON_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALGORITHMS = [MajorityVote, TruthFinder, Sums, TwoEstimates]


@given(claim_datasets())
@COMMON_SETTINGS
def test_algorithms_predict_claimed_values(dataset):
    for factory in ALGORITHMS:
        result = factory().discover(dataset)
        assert set(result.predictions) == set(dataset.facts)
        for fact, value in result.predictions.items():
            assert value in dataset.values_for(fact)


@given(claim_datasets())
@COMMON_SETTINGS
def test_metrics_stay_in_range(dataset):
    result = MajorityVote().discover(dataset)
    report = evaluate_predictions(dataset, result.predictions)
    for metric in report.as_row():
        assert 0.0 <= metric <= 1.0
    counts = report.counts
    assert counts.total == (
        counts.true_positives
        + counts.false_positives
        + counts.false_negatives
        + counts.true_negatives
    )


@given(claim_datasets(with_truth=False))
@COMMON_SETTINGS
def test_truth_vectors_are_masked_binary(dataset):
    vectors = build_truth_vectors(dataset, MajorityVote())
    assert vectors.matrix.shape == vectors.mask.shape
    assert set(np.unique(vectors.matrix)) <= {0, 1}
    # Entries can only be 1 where a claim exists.
    assert not vectors.matrix[~vectors.mask].any()


@given(claim_datasets(with_truth=False))
@COMMON_SETTINGS
def test_tdac_output_is_valid_partition(dataset):
    outcome = TDAC(MajorityVote(), config=TDACConfig(seed=0)).run(dataset)
    partition = outcome.partition
    # Blocks are disjoint and jointly exhaustive over the attributes.
    assert partition.attributes == tuple(sorted(dataset.attributes))
    seen = [a for block in partition.blocks for a in block]
    assert len(seen) == len(set(seen))
    # Merged predictions cover exactly the claimed facts.
    assert set(outcome.predictions) == set(dataset.facts)


@given(claim_datasets(with_truth=False), st.integers(0, 3))
@COMMON_SETTINGS
def test_tdac_deterministic_in_seed(dataset, seed):
    first = TDAC(MajorityVote(), config=TDACConfig(seed=seed)).run(dataset)
    second = TDAC(MajorityVote(), config=TDACConfig(seed=seed)).run(dataset)
    assert first.partition == second.partition
    assert first.predictions == second.predictions


@given(st.lists(st.integers(0, 4), min_size=1, max_size=10))
@COMMON_SETTINGS
def test_partition_from_labels_roundtrip(labels):
    attributes = [f"a{i}" for i in range(len(labels))]
    partition = Partition.from_labels(attributes, labels)
    recovered = partition.labels(attributes)
    # Same co-membership structure (labels may be renumbered).
    for i in range(len(labels)):
        for j in range(len(labels)):
            assert (labels[i] == labels[j]) == (recovered[i] == recovered[j])
