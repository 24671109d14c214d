"""Unit and property tests for the from-scratch k-means."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.clustering.kmeans as kmeans_module
from repro.clustering import (
    KMeans,
    inertia_of,
    lloyd,
    select_k_elbow,
    sweep_kmeans,
)
from repro.clustering.kmeans import (
    RowDistances,
    _compact_labels,
    draw_weighted,
    initial_centroid_sequence,
)
from tests.oracles.kmeans import (
    compact_labels_loop,
    initial_centroids_loop,
    kmeans_loop,
    lloyd_loop,
    squared_distances_loop,
    sweep_loop,
)


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
        def draw_one(p, rng):
            return int(draw_weighted(p, np.asarray(rng.random())))

        for p, seed in draw_cases():
            assert agrees_with_choice(draw_one, p, seed), (p, seed)

    def test_stacked_draw_matches_one_row_at_a_time(self):
        rng = np.random.default_rng(9)
        weights = rng.integers(0, 3, size=(40, 17)).astype(float)
        weights[:, 0] += 1.0
        p = weights / weights.sum(axis=1, keepdims=True)
        u = rng.random(40)
        stacked = draw_weighted(p, u)
        for row, uniform, pick in zip(p, u, stacked):
            assert draw_weighted(row, np.asarray(uniform)) == pick

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
            compacted, kept, n_kept = _compact_labels(
                labels[None], np.array([7])
            )
            expected = compact_labels_loop(labels, centroids)
            assert compacted.dtype == expected[0].dtype
            assert (compacted[0] == expected[0]).all()
            assert n_kept.tolist() == [len(expected[1])]
            assert centroids[kept].tobytes() == expected[1].tobytes()

    def test_stacked_compaction_matches_loop(self):
        rng = np.random.default_rng(4)
        ks = np.array([1, 3, 3, 5, 9])
        labels = np.stack([rng.integers(0, k, size=12) for k in ks])
        centroids = rng.normal(size=(int(ks.sum()), 2))
        compacted, kept, n_kept = _compact_labels(labels, ks)
        starts = np.concatenate(([0], np.cumsum(ks)[:-1]))
        ends = np.cumsum(n_kept)
        for s, k in enumerate(ks):
            own = centroids[starts[s] : starts[s] + k]
            expected = compact_labels_loop(labels[s], own)
            assert (compacted[s] == expected[0]).all()
            rows = kept[ends[s] - n_kept[s] : ends[s]]
            assert centroids[rows].tobytes() == expected[1].tobytes()


def traced_peak(fit):
    """Peak traced allocation while ``fit()`` runs, and its result."""
    tracemalloc.start()
    try:
        result = fit()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_seeding_memo_stays_lazy():
    """Seeding must never build the n x n distance table (3.2 GB here),
    and the lockstep working set of the Exam 62 sweep (600 solves, its
    60 results included) stays within 8 MiB."""
    data = np.random.default_rng(0).normal(size=(20_000, 3))
    peak, _ = traced_peak(lambda: KMeans(n_clusters=3, n_init=2, seed=0).fit(data))
    assert peak < 64 * 2**20
    exam62 = exam62_vectors()
    peak, fits = traced_peak(lambda: sweep_kmeans(exam62, range(2, 62)))
    assert len(fits) == 60
    assert peak < 8 * 2**20


def exam62_vectors():
    """The attribute truth vectors TD-AC sweeps on Exam 62 (62 x 248)."""
    from repro.algorithms import create
    from repro.core.truth_vectors import build_truth_vectors
    from repro.datasets import load

    dataset = load("Exam 62", seed=0)
    vectors = build_truth_vectors(dataset, create("MajorityVote"))
    return vectors.matrix.astype(float)


def same_fit(ours, expected):
    return (
        ours.labels.dtype == expected.labels.dtype
        and ours.labels.tobytes() == expected.labels.tobytes()
        and ours.centroids.tobytes() == expected.centroids.tobytes()
        and ours.inertia == expected.inertia
        and ours.n_iterations == expected.n_iterations
    )


def signed_zeros(data):
    """``data`` with every zero entry turned into ``-0.0``."""
    data = data.copy()
    data[data == 0.0] = -0.0
    return data


def lockstep_cases():
    rng = np.random.default_rng(21)
    binary = rng.integers(0, 2, size=(5, 30)).astype(float)
    gaussian = rng.normal(size=(14, 5))
    gaussian[rng.random(gaussian.shape) < 0.3] = -0.0
    return {
        "binary": rng.integers(0, 2, size=(18, 40)).astype(float),
        "binary-duplicates": binary[rng.integers(0, 5, size=16)],
        "binary-signed-zeros": signed_zeros(
            rng.integers(0, 2, size=(12, 20)).astype(float)
        ),
        "gaussian-signed-zeros": gaussian,
        "integers": rng.integers(-3, 4, size=(15, 6)).astype(float),
        "tall": rng.normal(size=(150, 3)),
    }


class TestLockstepMatchesOracle:
    """Every fit equals the sequential loops of ``tests/oracles``."""

    @pytest.mark.parametrize("name", sorted(lockstep_cases()))
    def test_sweep_every_k(self, name):
        data = lockstep_cases()[name]
        k_values = range(1, len(data) + 1) if len(data) < 40 else range(1, 9)
        expected, iterations = sweep_loop(data, k_values, n_init=3, seed=5)
        fits = sweep_kmeans(data, k_values, n_init=3, seed=5)
        for k in k_values:
            assert same_fit(fits[k], expected[k]), k

    @pytest.mark.parametrize("name", sorted(lockstep_cases()))
    @pytest.mark.parametrize("init", ["k-means++", "random"])
    def test_fit_and_generator_state(self, name, init):
        data = lockstep_cases()[name]
        for k in (1, 2, len(data) // 2, len(data)):
            ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
            for n_init in (1, 4):
                fit = KMeans(k, n_init=n_init, init=init, seed=ours).fit(data)
                expected, _ = kmeans_loop(data, k, n_init, theirs, init)
                assert same_fit(fit, expected), (k, n_init)
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize(
        "max_iterations, tolerance",
        [(300, -1.0), (1, 1e-6), (0, 1e-6), (2, 0.0), (300, 1e3)],
    )
    def test_stopping_rules(self, max_iterations, tolerance):
        data = lockstep_cases()["binary"]
        k_values = range(1, 12)
        expected, _ = sweep_loop(
            data, k_values, 3, 2, max_iterations=max_iterations,
            tolerance=tolerance,
        )
        fits = sweep_kmeans(
            data, k_values, 3, 2, max_iterations=max_iterations,
            tolerance=tolerance,
        )
        for k in k_values:
            assert same_fit(fits[k], expected[k]), k

    def test_forced_empty_clusters(self):
        rng = np.random.default_rng(8)
        for data in (rng.normal(size=(12, 3)), lockstep_cases()["binary"]):
            # Duplicate and far-away seeds leave clusters empty, so the
            # repair runs, and with no iteration the result drops them.
            far = np.full((2, data.shape[1]), 50.0)
            seeding = np.vstack([data[[0, 0, 1]], far])
            assigned = np.argmin(squared_distances_loop(data, seeding), axis=1)
            assert len(np.unique(assigned)) < len(seeding)
            for max_iterations in (0, 1, 6):
                for tolerance in (1e-6, -1.0):
                    result = lloyd(data, seeding, max_iterations, tolerance)
                    expected = lloyd_loop(data, seeding, max_iterations, tolerance)
                    assert same_fit(result, expected)
            assert lloyd(data, seeding, max_iterations=0).k < len(seeding)

    def test_repeated_labels_with_an_empty_cluster_keep_iterating(self):
        """The repair can move an empty cluster's centroid while every
        label repeats, so only repeats with no empty cluster retire."""
        for seed in (0, 5, 8, 10):
            rng = np.random.default_rng(seed)
            distinct = rng.integers(0, 3, size=(3, 2)).astype(float)
            data = distinct[rng.integers(0, 3, size=8)]
            seeding = data[rng.integers(0, 8, size=4)]
            assert same_fit(lloyd(data, seeding), lloyd_loop(data, seeding))

    def test_wide_rows(self):
        rng = np.random.default_rng(13)
        data = rng.integers(0, 2, size=(6, 10_000)).astype(float)
        expected, _ = sweep_loop(data, range(2, 6), n_init=4, seed=0)
        fits = sweep_kmeans(data, range(2, 6), n_init=4, seed=0)
        for k in range(2, 6):
            assert same_fit(fits[k], expected[k]), k

    def test_many_rows_take_the_ufunc_at_sums(self):
        data = np.random.default_rng(14).normal(size=(600, 2))
        expected, _ = sweep_loop(data, [2, 3], n_init=2, seed=1)
        fits = sweep_kmeans(data, [2, 3], n_init=2, seed=1)
        for k in (2, 3):
            assert same_fit(fits[k], expected[k]), k

    def test_unsorted_and_repeated_k(self):
        data = lockstep_cases()["binary"]
        k_values = [7, 2, 7, 11, 3]
        expected, _ = sweep_loop(data, k_values, n_init=3, seed=4)
        fits = sweep_kmeans(data, k_values, n_init=3, seed=4)
        assert list(fits) == [7, 2, 11, 3]
        for k in fits:
            assert same_fit(fits[k], expected[k]), k

    def test_exam62_sweep(self):
        data = exam62_vectors()
        expected, iterations = sweep_loop(data, range(2, 62))
        fits = sweep_kmeans(data, range(2, 62))
        assert iterations == 1575
        for k in range(2, 62):
            assert same_fit(fits[k], expected[k]), k

    def test_pin_is_not_vacuous(self, monkeypatch):
        """One 2-D product over all solves' centroids rounds differently.

        Columns of a BLAS product can differ in the last bit with the
        number of columns, so Lloyd distances from one concatenated
        product change some fits; the comparison above would catch it.
        """

        def concatenated(data, data_norms, centroids, centroid_norms):
            solves, k, width = centroids.shape
            cross = data @ centroids.reshape(-1, width).T
            cross = cross.reshape(len(data), solves, k).transpose(1, 0, 2)
            distances = data_norms[:, None] + centroid_norms[:, None, :]
            return np.maximum(distances - 2.0 * cross, 0.0)

        monkeypatch.setattr(kmeans_module, "_squared_distances", concatenated)
        mismatches = 0
        for seed in range(4):
            data = np.random.default_rng(seed).integers(0, 2, size=(40, 200))
            data = data.astype(float)
            expected, _ = sweep_loop(data, range(2, 12), n_init=3, seed=0)
            fits = sweep_kmeans(data, range(2, 12), n_init=3, seed=0)
            mismatches += sum(
                not same_fit(fits[k], expected[k]) for k in range(2, 12)
            )
        assert mismatches > 0
