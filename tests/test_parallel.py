"""Unit tests for parallel per-block execution."""

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


def test_parallel_equals_sequential(tiny_dataset):
    partition = Partition.from_blocks([("a",), ("b",)])
    sequential = run_blocks(MajorityVote(), tiny_dataset, partition, n_jobs=1)
    parallel = run_blocks(MajorityVote(), tiny_dataset, partition, n_jobs=2)
    for seq, par in zip(sequential, parallel):
        assert seq.predictions == par.predictions


def test_single_block_short_circuits(tiny_dataset):
    partition = Partition.whole(("a", "b"))
    results = run_blocks(MajorityVote(), tiny_dataset, partition, n_jobs=8)
    assert len(results) == 1
    assert set(f.attribute for f in results[0].predictions) == {"a", "b"}


def test_parallel_accu_matches_sequential():
    """Accu keeps per-call detector state, so thread-parallel blocks must
    be race-free (regression test for a shared-state bug)."""
    from repro.algorithms import Accu
    from repro.core import TDAC, TDACConfig
    from repro.datasets import make_synthetic

    dataset = make_synthetic("DS3", n_objects=25, seed=5).dataset
    sequential = TDAC(Accu(), config=TDACConfig(seed=0, n_jobs=1)).run(dataset)
    parallel = TDAC(Accu(), config=TDACConfig(seed=0, n_jobs=4)).run(dataset)
    assert sequential.predictions == parallel.predictions
    assert sequential.partition == parallel.partition
