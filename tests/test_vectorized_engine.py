"""Bit-identity and behaviour tests for the vectorized claim-index engine.

The engine (``repro.data.claim_engine.ClaimIndexEngine`` plus the
vectorized kernels inside the base algorithms) must be *bitwise*
indistinguishable from the historical per-claim loops under the default
float64 working dtype.  ``tests.oracles.reference_kernels()`` patches the
loops (and the per-block recompiles) back in from the outside, which is
what every identity test here compares against.

The float32 opt-in is explicitly *not* bit-identical; its contract —
identical winning predictions on the small suites, confidences within a
documented tolerance — is pinned by the float32 tests below.
"""

from __future__ import annotations

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
from repro.core.config import TDACConfig, config_from_dict
from repro.core.parallel import run_blocks
from repro.core.tdac import TDAC
from repro.data import ClaimIndexEngine, DataError, DatasetIndex
from repro.datasets.exam import make_exam
from repro.datasets.registry import load
from repro.datasets.stocks import make_stocks
from tests.oracles import reference_kernels

#: Every base algorithm whose per-iteration updates were vectorized,
#: with the kernel oracles its solve must reach.  Algorithms with no
#: kernel oracle are still compared against an independent path: the
#: oracle context also swaps engine block slices for a fresh compile of
#: each restricted dataset.
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
        assert reached == ORACLES_REACHED[algorithm_cls], label
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


def test_shared_engine_cached_per_dataset_and_dtype():
    dataset = load("DS2", seed=0, scale=0.05)
    a = ClaimIndexEngine.shared(dataset)
    b = ClaimIndexEngine.shared(dataset)
    assert a is b
    c = ClaimIndexEngine.shared(dataset, dtype=np.float32)
    assert c is not a
    assert c.full_index.dtype == np.float32
    other = load("DS2", seed=1, scale=0.05)
    assert ClaimIndexEngine.shared(other) is not a


def test_index_rejects_unsupported_dtype():
    dataset = load("DS2", seed=0, scale=0.05)
    with pytest.raises(ValueError):
        DatasetIndex(dataset, dtype=np.int32)
    with pytest.raises(ValueError):
        ClaimIndexEngine(dataset, dtype=np.float16)
    with pytest.raises(ValueError):
        TDACConfig(dtype="float16")


def test_full_tdac_pipeline_bit_identical():
    """The whole pipeline (reference, blocks, merge) matches the loops."""
    dataset = load("DS2", seed=0, scale=0.1)
    tdac = TDAC(Accu(), config=TDACConfig(seed=0))
    fast = tdac.run(dataset)
    with reference_kernels() as reached:
        reference = tdac.run(dataset)
    assert reached == {"discounted_votes"}
    assert fast.partition == reference.partition
    assert fast.silhouette_by_k == reference.silhouette_by_k
    _assert_results_equal(fast.result, reference.result, "pipeline")


def test_memmap_truth_vectors_bit_identical():
    """memmap_threshold=0 forces mapped matrices; results are unchanged."""
    dataset = load("DS2", seed=0, scale=0.1)
    plain = TDAC(Accu(), config=TDACConfig()).run(dataset)
    mapped = TDAC(Accu(), config=TDACConfig(memmap_threshold=0)).run(dataset)
    assert plain.partition == mapped.partition
    _assert_results_equal(plain.result, mapped.result, "memmap")
    assert np.array_equal(
        plain.truth_vectors.matrix, np.asarray(mapped.truth_vectors.matrix)
    )
    assert isinstance(mapped.truth_vectors.matrix, np.memmap)


# ---------------------------------------------------------------------------
# float32 tolerance contract
# ---------------------------------------------------------------------------

#: The float32 path may drift from float64 in confidence values; this is
#: the documented ceiling on that drift for the small test suites.  The
#: winning predictions themselves must not change there.
FLOAT32_CONFIDENCE_TOLERANCE = 1e-4


@pytest.mark.parametrize("algorithm_cls", [MajorityVote, TruthFinder, Sums, CRH])
def test_float32_contract(algorithm_cls):
    dataset = load("DS2", seed=0, scale=0.1)
    engine64 = ClaimIndexEngine.shared(dataset)
    engine32 = ClaimIndexEngine.shared(dataset, dtype=np.float32)
    full = algorithm_cls().discover(engine64.full_index)
    half = algorithm_cls().discover(engine32.full_index)
    assert half.predictions == full.predictions
    for fact, value in full.confidence.items():
        assert half.confidence[fact] == pytest.approx(
            value, abs=FLOAT32_CONFIDENCE_TOLERANCE
        )


def test_float32_config_changes_fingerprint_but_float64_is_legacy():
    """dtype feeds the fingerprint only when it deviates from float64."""
    base = TDACConfig()
    f32 = TDACConfig(dtype="float32")
    assert base.fingerprint() != f32.fingerprint()
    # A payload without the new knobs (an old checkpoint) still validates.
    legacy = base.to_dict()
    legacy.pop("dtype")
    legacy.pop("memmap_threshold")
    assert config_from_dict(legacy).fingerprint() == base.fingerprint()
    assert f32.dtype_np == np.float32


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
    assert reached == {"discounted_votes"}
    for a, b in zip(explicit, implicit):
        _assert_results_equal(a, b, "explicit-vs-implicit")
    for a, b in zip(explicit, legacy):
        _assert_results_equal(a, b, "engine-vs-legacy")
