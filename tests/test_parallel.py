"""Unit tests for the per-block runs of Algorithm 1's step 4."""

from repro.algorithms import MajorityVote
from repro.core import Partition, run_blocks


def test_one_result_per_block(tiny_dataset):
    partition = Partition.from_blocks([("a",), ("b",)])
    results = run_blocks(MajorityVote(), tiny_dataset, partition)
    assert len(results) == 2


def test_results_in_block_order(tiny_dataset):
    partition = Partition.from_blocks([("a",), ("b",)])
    results = run_blocks(MajorityVote(), tiny_dataset, partition)
    for block, result in zip(partition.blocks, results):
        predicted_attrs = {fact.attribute for fact in result.predictions}
        assert predicted_attrs == set(block)


def test_single_block_short_circuits(tiny_dataset):
    partition = Partition.whole(("a", "b"))
    results = run_blocks(MajorityVote(), tiny_dataset, partition)
    assert len(results) == 1
    assert set(f.attribute for f in results[0].predictions) == {"a", "b"}
