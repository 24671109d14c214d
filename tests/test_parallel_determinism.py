"""The k sweep must be bit-identical to the classic k-means fits.

:func:`repro.clustering.sweep_kmeans` runs one sequential loop over
``k``, drawing each ``k``'s restart seedings from a fresh generator and
sharing the row norms and the seeding's row-distance memo across every
solve; the fits it returns — and so the k-selectors built on it — must
match ``KMeans(...).fit`` exactly.
"""

import numpy as np
import pytest

from repro.clustering import (
    select_k_elbow,
    select_k_gap,
    select_k_silhouette,
    sweep_kmeans,
)
from repro.clustering.kmeans import KMeans


class TestSweepDeterminism:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(7)
        return rng.integers(0, 2, size=(12, 40)).astype(float)

    def test_sweep_matches_classic_fit(self, data):
        fits = sweep_kmeans(data, range(2, 8), n_init=5, seed=3)
        for k, fit in fits.items():
            classic = KMeans(n_clusters=k, n_init=5, seed=3).fit(data)
            assert (fit.labels == classic.labels).all()
            assert fit.inertia == classic.inertia

    def test_selectors_match_sequential(self, data):
        for selector in (select_k_silhouette, select_k_elbow, select_k_gap):
            first = selector(data, seed=1, n_init=3)
            again = selector(data, seed=1, n_init=3)
            assert first.k == again.k
            assert (first.labels == again.labels).all()
            assert first.scores == again.scores
            classic = KMeans(n_clusters=first.k, n_init=3, seed=1).fit(data)
            assert (first.labels == classic.labels).all()
