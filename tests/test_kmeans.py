"""Unit and property tests for the from-scratch k-means."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering import KMeans, inertia_of, select_k_elbow, sweep_kmeans
from repro.clustering.kmeans import (
    RowDistances,
    _compact_labels,
    draw_weighted,
    initial_centroid_sequence,
)
from tests.oracles.kmeans import compact_labels_loop, initial_centroids_loop


def blobs(seed=0, per_cluster=20):
    """Three well-separated Gaussian blobs in 2-D."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
    data = np.vstack(
        [c + rng.normal(scale=0.5, size=(per_cluster, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(3), per_cluster)
    return data, labels


class TestKMeans:
    def test_recovers_separated_blobs(self):
        data, truth = blobs()
        result = KMeans(n_clusters=3, seed=0).fit(data)
        # Same-blob points must share a label.
        for blob in range(3):
            blob_labels = set(result.labels[truth == blob].tolist())
            assert len(blob_labels) == 1

    def test_inertia_matches_labels(self):
        data, _ = blobs()
        result = KMeans(n_clusters=3, seed=0).fit(data)
        assert result.inertia == pytest.approx(
            inertia_of(data, result.labels), rel=1e-6
        )

    def test_deterministic_given_seed(self):
        data, _ = blobs()
        first = KMeans(n_clusters=3, seed=42).fit(data)
        second = KMeans(n_clusters=3, seed=42).fit(data)
        assert (first.labels == second.labels).all()
        assert first.inertia == second.inertia

    def test_more_clusters_never_increase_inertia(self):
        data, _ = blobs()
        inertias = [
            KMeans(n_clusters=k, seed=0, n_init=5).fit(data).inertia
            for k in (1, 2, 3, 4, 5)
        ]
        # Weak monotonicity: inertia is non-increasing in k (up to
        # restart luck, which n_init=5 makes negligible on blobs).
        for smaller, larger in zip(inertias, inertias[1:]):
            assert larger <= smaller + 1e-6

    def test_labels_are_compact(self):
        data, _ = blobs()
        result = KMeans(n_clusters=3, seed=1).fit(data)
        assert set(result.labels.tolist()) == set(range(result.k))

    def test_clusters_listing(self):
        data, _ = blobs(per_cluster=5)
        result = KMeans(n_clusters=3, seed=0).fit(data)
        groups = result.clusters()
        assert sorted(i for g in groups for i in g) == list(range(len(data)))

    def test_k_equal_n_gives_zero_inertia(self):
        data = np.array([[0.0], [1.0], [5.0]])
        result = KMeans(n_clusters=3, seed=0).fit(data)
        assert result.inertia == pytest.approx(0.0)

    def test_duplicate_points_do_not_crash(self):
        data = np.zeros((6, 3))
        result = KMeans(n_clusters=2, seed=0).fit(data)
        assert result.inertia == pytest.approx(0.0)

    def test_random_init_also_works(self):
        data, _ = blobs()
        result = KMeans(n_clusters=3, seed=0, init="random").fit(data)
        assert result.inertia < 100.0

    @given(st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_binary_rows_stay_clustered(self, seed):
        rng = np.random.default_rng(seed)
        base = np.array([[0] * 8, [1] * 8], dtype=float)
        rows = base[rng.integers(0, 2, size=12)]
        result = KMeans(n_clusters=2, seed=0).fit(rows)
        # Identical rows must always be co-clustered.
        for pattern in (0.0, 1.0):
            members = result.labels[rows[:, 0] == pattern]
            if len(members):
                assert len(set(members.tolist())) == 1


class TestValidation:
    def test_rejects_more_clusters_than_rows(self):
        with pytest.raises(ValueError, match="cannot fit"):
            KMeans(n_clusters=5).fit(np.zeros((3, 2)))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=0)

    def test_rejects_bad_init(self):
        with pytest.raises(ValueError, match="init"):
            KMeans(n_clusters=2, init="bogus")

    def test_rejects_1d_data(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=2).fit(np.zeros(5))


class TestNonFiniteData:
    @pytest.fixture
    def data(self):
        data, _ = blobs(per_cluster=4)
        data[5, 1] = np.nan
        return data

    def test_single_cluster_rejects_nan(self, data):
        with pytest.raises(ValueError, match="NaN or infinite"):
            KMeans(n_clusters=1).fit(data)

    def test_random_init_rejects_nan(self, data):
        with pytest.raises(ValueError, match="NaN or infinite"):
            KMeans(n_clusters=3, init="random").fit(data)

    def test_overflowing_distances_are_rejected(self):
        data = np.array([[1e200], [-1e200], [0.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="not finite"):
                KMeans(n_clusters=2).fit(data)

    def test_sweep_rejects_infinity(self, data):
        data[5, 1] = np.inf
        with pytest.raises(ValueError, match="NaN or infinite"):
            sweep_kmeans(data, range(1, 4))


class TestSweepValidation:
    def test_rejects_zero_restarts(self):
        data, _ = blobs(per_cluster=4)
        for k_values in (range(2, 5), []):
            with pytest.raises(ValueError, match="n_init must be at least 1"):
                sweep_kmeans(data, k_values, n_init=0)
        with pytest.raises(ValueError, match="n_init must be at least 1"):
            select_k_elbow(data, n_init=0)

    def test_rejects_unknown_init(self):
        with pytest.raises(ValueError, match="unknown init strategy 'bogus'"):
            sweep_kmeans(np.zeros((3, 2)), [], init="bogus")


def seeding_cases():
    """Float, 0/1, duplicate and all-identical rows (``total <= 0``)."""
    rng = np.random.default_rng(11)
    binary = rng.integers(0, 2, size=(4, 9)).astype(float)
    return {
        "float": rng.normal(size=(9, 4)),
        "binary": rng.integers(0, 2, size=(10, 12)).astype(float),
        "duplicates": binary[rng.integers(0, 4, size=10)],
        "identical": np.ones((6, 3)),
    }


def draw_cases():
    """Weights with zero entries, as ``(p, seed)`` pairs for one draw.

    The last cases put the generator's first uniform exactly on a step
    of the CDF, where only ``searchsorted(side="right")`` agrees with
    ``Generator.choice``.
    """
    rng = np.random.default_rng(5)
    cases = []
    for seed in range(200):
        weights = rng.integers(0, 4, size=int(rng.integers(1, 30))).astype(float)
        weights[int(rng.integers(len(weights)))] += 1.0
        cases.append((weights / weights.sum(), seed))
    for seed in range(20):
        u = np.random.default_rng(seed).random()
        cases.append((np.array([u, 0.0, 1.0 - u]), seed))
        cases.append((np.array([0.0, u, 0.0, 0.0, 1.0 - u]), seed))
    return cases


def agrees_with_choice(draw, p, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    same_pick = draw(p, ours) == int(theirs.choice(len(p), p=p))
    return same_pick and ours.bit_generator.state == theirs.bit_generator.state


class TestSeedingMatchesOracle:
    @pytest.mark.parametrize("name", sorted(seeding_cases()))
    @pytest.mark.parametrize("init", ["k-means++", "random"])
    def test_seedings_and_generator_state(self, name, init):
        data = seeding_cases()[name]
        memo = RowDistances(data)  # one memo for every k, as in the sweep
        for k in range(1, len(data) + 1):
            ours = np.random.default_rng(k)
            theirs = np.random.default_rng(k)
            seedings = initial_centroid_sequence(data, k, 3, ours, init, memo)
            for seeding in seedings:
                expected = initial_centroids_loop(data, k, theirs, init)
                assert seeding.dtype == expected.dtype
                assert seeding.tobytes() == expected.tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_draw_matches_generator_choice(self):
        for p, seed in draw_cases():
            assert agrees_with_choice(draw_weighted, p, seed), (p, seed)

    def test_draw_pin_is_not_vacuous(self):
        def draw_left(p, rng):
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            return int(cdf.searchsorted(rng.random(), side="left"))

        assert not all(
            agrees_with_choice(draw_left, p, seed) for p, seed in draw_cases()
        )

    def test_compact_labels_matches_loop(self):
        rng = np.random.default_rng(3)
        centroids = rng.normal(size=(7, 2))
        for _ in range(50):
            labels = rng.choice(
                rng.permutation(7)[: int(rng.integers(1, 8))],
                size=int(rng.integers(1, 30)),
            )
            ours = _compact_labels(labels, centroids)
            expected = compact_labels_loop(labels, centroids)
            assert ours[0].dtype == expected[0].dtype
            assert (ours[0] == expected[0]).all()
            assert ours[1].tobytes() == expected[1].tobytes()


def test_seeding_memo_stays_lazy():
    """Seeding must never build the n x n distance table (3.2 GB here)."""
    data = np.random.default_rng(0).normal(size=(20_000, 3))
    tracemalloc.start()
    try:
        KMeans(n_clusters=3, n_init=2, seed=0).fit(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
