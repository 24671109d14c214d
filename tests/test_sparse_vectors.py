"""The sparse truth-vector/distance path must agree exactly with dense.

All Gram quantities on binary operands are integer counts, which float64
represents exactly, so the CSR kernels are required to be *bit-identical*
to the dense ones — not merely close — on every dataset, including the
``masked`` distance.  The auto threshold is a pure performance knob.
"""

import numpy as np
import pytest

from repro.algorithms import MajorityVote
from repro.clustering.distance import (
    pairwise_hamming,
    pairwise_hamming_sparse,
    pairwise_masked_hamming,
    pairwise_masked_hamming_sparse,
)
from repro.core import DEFAULT_SPARSE_THRESHOLD, TDAC, TDACConfig, build_truth_vectors
from repro.datasets import load

# Synthetic and semi-synthetic seed datasets, kept small enough for CI.
DATASETS = [
    ("DS1", {"scale": 0.05}),
    ("DS2", {"scale": 0.05}),
    ("Semi 62 range 25", {}),
]


@pytest.fixture(scope="module", params=[name for name, _ in DATASETS])
def vectors(request):
    kwargs = dict(DATASETS)[request.param]
    dataset = load(request.param, **kwargs)
    reference = MajorityVote().discover(dataset)
    return build_truth_vectors(dataset, reference)


class TestSparseKernels:
    def test_hamming_bit_identical(self, vectors):
        dense = pairwise_hamming(vectors.matrix.astype(float))
        sparse = pairwise_hamming_sparse(vectors.matrix_csr())
        assert np.array_equal(dense, sparse)

    def test_masked_hamming_bit_identical(self, vectors):
        dense = pairwise_masked_hamming(
            vectors.matrix.astype(float), vectors.mask
        )
        sparse = pairwise_masked_hamming_sparse(
            vectors.matrix_csr(), vectors.mask_csr()
        )
        assert np.array_equal(dense, sparse)

    def test_csr_views_match_dense_arrays(self, vectors):
        assert np.array_equal(
            vectors.matrix_csr().toarray(), vectors.matrix.astype(float)
        )
        assert np.array_equal(
            vectors.mask_csr().toarray(), vectors.mask.astype(float)
        )

    def test_rejects_dense_input(self, vectors):
        with pytest.raises(TypeError, match="sparse"):
            pairwise_hamming_sparse(vectors.matrix)


class TestSparsePipeline:
    @pytest.mark.parametrize("name,kwargs", DATASETS)
    @pytest.mark.parametrize("distance", ["hamming", "masked"])
    def test_sparse_and_dense_pipelines_agree(self, name, kwargs, distance):
        dataset = load(name, **kwargs)
        dense = TDAC(
            MajorityVote(), config=TDACConfig(seed=0, distance=distance, sparse=False)
        ).run(dataset)
        sparse = TDAC(
            MajorityVote(), config=TDACConfig(seed=0, distance=distance, sparse=True)
        ).run(dataset)
        assert str(dense.partition) == str(sparse.partition)
        assert dense.silhouette_by_k == sparse.silhouette_by_k
        assert dense.result.predictions == sparse.result.predictions
        assert dense.result.source_trust == sparse.result.source_trust


class TestAutoThreshold:
    def test_auto_mode_respects_threshold(self):
        dataset = load("DS2", scale=0.05)
        reference = MajorityVote().discover(dataset)
        vectors = build_truth_vectors(dataset, reference)
        small = TDAC(
            MajorityVote(),
            config=TDACConfig(sparse="auto", sparse_threshold=10**9),
        )
        large = TDAC(
            MajorityVote(), config=TDACConfig(sparse="auto", sparse_threshold=1)
        )
        assert not small.use_sparse(vectors)
        assert large.use_sparse(vectors)
        assert DEFAULT_SPARSE_THRESHOLD > 0

    def test_rejects_bad_sparse_mode(self):
        with pytest.raises(ValueError, match="sparse"):
            TDAC(MajorityVote(), config=TDACConfig(sparse="sometimes"))
