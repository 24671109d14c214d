"""Bit-identity and behaviour tests for the vectorized claim-index engine.

The engine (``repro.data.claim_engine.ClaimIndexEngine`` plus the
vectorized kernels inside the base algorithms) must be *bitwise*
indistinguishable from the historical per-claim loops.
``tests.oracles.reference_kernels()`` patches the loops (and the
per-block recompiles) back in from the outside, which is what every
identity test here compares against.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.algorithms import (
    CATD,
    CRH,
    Accu,
    AccuSim,
    AverageLog,
    Depen,
    Investment,
    MajorityVote,
    PooledInvestment,
    SimpleLCA,
    Sums,
    ThreeEstimates,
    TruthFinder,
    TwoEstimates,
)
from repro.core.config import TDACConfig
from repro.core.parallel import run_blocks
from repro.core.tdac import TDAC
from repro.data import Claim, ClaimIndexEngine, DataError, DatasetIndex
from repro.datasets.exam import make_exam
from repro.datasets.registry import load
from repro.datasets.stocks import make_stocks
from tests.oracles import reference_kernels

#: Every base algorithm whose per-iteration updates were vectorized,
#: with the kernel oracles its solve must reach.  Algorithms with no
#: kernel oracle are still compared against an independent path: the
#: oracle context also swaps engine block slices for a per-fact loop
#: compile of each restricted dataset (``COMPILE_ORACLE``), which every
#: solve reaches.
ORACLES_REACHED = {
    MajorityVote: set(),
    TruthFinder: {"weighted_support"},
    Depen: {"discounted_votes"},
    Accu: {"discounted_votes"},
    AccuSim: {"discounted_votes", "weighted_support"},
    Sums: set(),
    AverageLog: set(),
    Investment: set(),
    PooledInvestment: set(),
    TwoEstimates: set(),
    ThreeEstimates: set(),
    CRH: set(),
    CATD: set(),
    SimpleLCA: set(),
}
COMPILE_ORACLE = {"dataset_index"}


def _datasets():
    return [
        ("DS2", load("DS2", seed=0, scale=0.1)),
        ("exam", make_exam(32, seed=1)),
        ("stocks", make_stocks(30, seed=2).dataset),
    ]


def _assert_results_equal(fast, reference, label):
    assert fast.predictions == reference.predictions, label
    assert fast.confidence == reference.confidence, label
    assert fast.source_trust == reference.source_trust, label
    assert fast.iterations == reference.iterations, label


@pytest.mark.parametrize("algorithm_cls", list(ORACLES_REACHED))
def test_algorithm_bit_identical_to_reference_loops(algorithm_cls):
    """Block solves match the loop oracles and restricted recompiles."""
    for name, dataset in _datasets():
        attrs = dataset.attributes
        half = len(attrs) // 2
        blocks = [tuple(attrs), tuple(attrs[:half]), tuple(attrs[half:])]
        fast = run_blocks(algorithm_cls(), dataset, blocks)
        with reference_kernels() as reached:
            reference = run_blocks(algorithm_cls(), dataset, blocks)
        label = f"{algorithm_cls.__name__}/{name}"
        expected = ORACLES_REACHED[algorithm_cls] | COMPILE_ORACLE
        assert reached == expected, label
        for fast_block, reference_block in zip(fast, reference):
            _assert_results_equal(fast_block, reference_block, label)


def test_block_slices_identical_to_recompiled_restrictions():
    """Engine block views equal a fresh compile of the restricted dataset."""
    dataset = load("DS2", seed=0, scale=0.1)
    engine = ClaimIndexEngine(dataset)
    attrs = list(dataset.attributes)
    blocks = [
        tuple(attrs[:3]),
        tuple(attrs[3:]),
        (attrs[1],),
        tuple(attrs),  # all attributes: must equal the full compile
    ]
    for block in blocks:
        view = engine.block_index(block)
        fresh = DatasetIndex(dataset.restrict_attributes(block))
        assert view.facts == fresh.facts
        assert view.slot_values == fresh.slot_values
        for field in (
            "slot_fact",
            "fact_slot_start",
            "claim_source",
            "claim_fact",
            "claim_slot",
            "true_slot",
        ):
            assert np.array_equal(getattr(view, field), getattr(fresh, field)), field
        assert np.array_equal(view._tie_breaker, fresh._tie_breaker)


def test_block_index_memoised_and_validated():
    dataset = load("DS2", seed=0, scale=0.05)
    engine = ClaimIndexEngine(dataset)
    block = tuple(dataset.attributes[:2])
    assert engine.block_index(block) is engine.block_index(block)
    with pytest.raises(DataError):
        engine.block_index(("no-such-attribute",))


def test_shared_engine_cached_per_dataset():
    dataset = load("DS2", seed=0, scale=0.05)
    a = ClaimIndexEngine.shared(dataset)
    b = ClaimIndexEngine.shared(dataset)
    assert a is b
    other = load("DS2", seed=1, scale=0.05)
    assert ClaimIndexEngine.shared(other) is not a


def test_shared_engine_is_one_per_dataset_under_contention():
    # Creation is check-then-act on the dataset; every racing caller
    # must still get the one engine the dataset keeps.
    datasets = [load("DS2", seed=s, scale=0.05) for s in range(4)]
    seen: list = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def grab():
            for dataset in datasets:
                seen.append((id(dataset), ClaimIndexEngine.shared(dataset)))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert len(seen) == 8 * len(datasets)
    for dataset in datasets:
        engines = {id(e) for key, e in seen if key == id(dataset)}
        assert engines == {id(ClaimIndexEngine.shared(dataset))}


@pytest.mark.parametrize(
    "base", [MajorityVote, TruthFinder], ids=lambda b: b.__name__
)
def test_shared_engine_is_freed_with_its_dataset(base):
    # Regression: a process-wide registry weak-keyed on the dataset held
    # its engine (which holds the dataset) strongly, so no entry ever
    # died.  Cover a full pass (block views, slot similarity) and a
    # spliced child engine from ``extended``.
    dataset = load("DS2", seed=0, scale=0.05)
    TDAC(base(), config=TDACConfig(seed=0)).run(dataset)
    engine = ClaimIndexEngine.shared(dataset)
    claim = next(dataset.iter_claims())
    fresh = [Claim(claim.source, "leak-probe", claim.attribute, "v")]
    child_dataset = dataset.extended(fresh)
    child = engine.extended(child_dataset, fresh)
    assert ClaimIndexEngine.shared(child_dataset) is child
    owned = (dataset, engine, child_dataset, child)
    refs = [weakref.ref(obj) for obj in owned]
    del dataset, engine, child_dataset, child, owned
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_dropped_dataset_frees_its_engine_without_a_collector_pass():
    # The engine, its indexes and their similarity caches refer back to
    # what owns them weakly, so nothing of a pass is left in a reference
    # cycle: dropping the dataset frees all of it by reference counting,
    # not at the next full collection.
    from repro.algorithms.similarity import SlotSimilarity

    gc.collect()
    gc.disable()
    try:
        dataset = load("DS2", seed=0, scale=0.05)
        TDAC(TruthFinder(), config=TDACConfig(seed=0)).run(dataset)
        engine = ClaimIndexEngine.shared(dataset)
        index = engine.full_index
        owned = (
            dataset,
            engine,
            index,
            engine.block_index(dataset.attributes[:2]),
            SlotSimilarity.shared(index),
        )
        assert engine.dataset is index.dataset is dataset
        refs = [weakref.ref(obj) for obj in owned]
        del dataset, engine, index, owned
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_full_tdac_pipeline_bit_identical():
    """The whole pipeline (reference, blocks, merge) matches the loops."""
    dataset = load("DS2", seed=0, scale=0.1)
    tdac = TDAC(Accu(), config=TDACConfig(seed=0))
    fast = tdac.run(dataset)
    with reference_kernels() as reached:
        reference = tdac.run(dataset)
    assert reached == {"discounted_votes"} | COMPILE_ORACLE
    assert fast.partition == reference.partition
    assert fast.silhouette_by_k == reference.silhouette_by_k
    _assert_results_equal(fast.result, reference.result, "pipeline")


def test_run_blocks_engine_reuse_matches_default():
    """Passing an explicit engine to run_blocks changes nothing."""
    from repro.core.partition import Partition

    dataset = load("DS2", seed=0, scale=0.1)
    attrs = dataset.attributes
    partition = Partition.from_blocks([tuple(attrs[:3]), tuple(attrs[3:])])
    engine = ClaimIndexEngine(dataset)
    explicit = run_blocks(Accu(), dataset, partition, engine=engine)
    implicit = run_blocks(Accu(), dataset, partition)
    with reference_kernels() as reached:
        legacy = run_blocks(Accu(), dataset, partition)
    assert reached == {"discounted_votes"} | COMPILE_ORACLE
    for a, b in zip(explicit, implicit):
        _assert_results_equal(a, b, "explicit-vs-implicit")
    for a, b in zip(explicit, legacy):
        _assert_results_equal(a, b, "engine-vs-legacy")
