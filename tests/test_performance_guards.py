"""Performance guard-rails with generous bounds.

Two real regressions were caught during development only by accident —
an (n, k, d) broadcast cube in k-means (8x slowdown on wide sweeps) and
a Python-loop silhouette.  These tests pin order-of-magnitude budgets so
the next such regression fails loudly.  Bounds are ~10x the observed
times on a modest container, so they should never flake on slower
hardware doing honest work.
"""

import time

import numpy as np
import pytest

from repro.algorithms import Accu, MajorityVote
from repro.clustering import KMeans, pairwise_hamming, silhouette_score
from repro.core import TDAC, TDACConfig
from repro.data import DatasetIndex
from repro.datasets import make_exam, make_synthetic


def elapsed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


class TestClusteringBudgets:
    def test_wide_kmeans_sweep_budget(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 2, size=(124, 248)).astype(float)

        def sweep():
            for k in range(2, 40):
                KMeans(n_clusters=k, n_init=3, seed=0).fit(data)

        _, seconds = elapsed(sweep)
        assert seconds < 30.0

    def test_silhouette_budget(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 2, size=(124, 248)).astype(float)
        distances = pairwise_hamming(data)
        labels = rng.integers(0, 5, size=124)

        def score_many():
            for _ in range(100):
                silhouette_score(distances, labels)

        _, seconds = elapsed(score_many)
        assert seconds < 10.0


class TestPipelineBudgets:
    def test_index_compilation_budget(self):
        dataset = make_synthetic("DS1", n_objects=1000, seed=0).dataset
        assert dataset.n_claims == 60_000
        _, seconds = elapsed(lambda: DatasetIndex(dataset))
        assert seconds < 20.0

    def test_majority_vote_full_scale_budget(self):
        dataset = make_synthetic("DS1", n_objects=1000, seed=0).dataset
        _, seconds = elapsed(lambda: MajorityVote().discover(dataset))
        assert seconds < 30.0

    def test_tdac_exam_budget(self):
        dataset = make_exam(62, seed=0)
        tdac = TDAC(Accu(), config=TDACConfig(seed=0))
        _, seconds = elapsed(lambda: tdac.run(dataset))
        assert seconds < 120.0
