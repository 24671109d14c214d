"""Unit tests for the k-selection strategies."""

import numpy as np
import pytest

from repro.clustering import (
    K_SELECTORS,
    select_k_elbow,
    select_k_gap,
    select_k_silhouette,
)


def grouped_binary(n_groups=3, rows_per_group=4, length=24, seed=0):
    """Binary rows forming n_groups distinct patterns plus small noise."""
    rng = np.random.default_rng(seed)
    patterns = rng.integers(0, 2, size=(n_groups, length)).astype(float)
    rows = []
    for g in range(n_groups):
        for _ in range(rows_per_group):
            row = patterns[g].copy()
            flip = rng.integers(0, length, size=1)
            row[flip] = 1 - row[flip]
            rows.append(row)
    return np.array(rows)


class TestSilhouetteSelection:
    def test_finds_planted_group_count(self):
        data = grouped_binary(n_groups=3)
        result = select_k_silhouette(data, seed=0)
        assert result.k == 3
        assert result.strategy == "silhouette"

    def test_scores_cover_sweep_range(self):
        data = grouped_binary(n_groups=2, rows_per_group=3)
        result = select_k_silhouette(data, seed=0)
        assert set(result.scores) == set(range(2, len(data) - 1 + 1))

    def test_k_max_caps_sweep(self):
        data = grouped_binary(n_groups=3)
        result = select_k_silhouette(data, k_max=4, seed=0)
        assert max(result.scores) == 4

    def test_invalid_range_raises(self):
        data = grouped_binary(n_groups=1, rows_per_group=2)  # 2 rows
        with pytest.raises(ValueError, match="no valid k"):
            select_k_silhouette(data)

    def test_precomputed_distances_accepted(self):
        from repro.clustering import pairwise_hamming

        data = grouped_binary(n_groups=3)
        result = select_k_silhouette(
            data, distances=pairwise_hamming(data), seed=0
        )
        assert result.k == 3


class TestDegenerateSweep:
    """Every swept fit collapsing to one cluster must not elect a fake k."""

    def test_identical_rows_fall_back_to_trivial_partition(self):
        data = np.ones((6, 12))
        result = select_k_silhouette(data, seed=0)
        assert result.k == 1
        assert (result.labels == 0).all()
        assert len(result.labels) == len(data)
        # The sweep itself still ran and scored every candidate -1.
        assert set(result.scores) == set(range(2, len(data)))
        assert all(score == -1.0 for score in result.scores.values())

    def test_agrees_with_tdac_selection_path(self):
        """select_k_silhouette and TDAC.select_partition must degrade
        the same way: one trivial block covering every attribute."""
        from repro.core import TDAC, TDACConfig, Partition
        from repro.core.truth_vectors import TruthVectorMatrix

        matrix = np.ones((6, 12))
        vectors = TruthVectorMatrix(
            matrix=matrix,
            mask=np.ones_like(matrix, dtype=bool),
            attributes=tuple("abcdef"),
            ranks=tuple((f"o{i}", "s") for i in range(12)),
        )
        from repro.algorithms import MajorityVote

        tdac = TDAC(MajorityVote(), config=TDACConfig(seed=0))
        partition, _ = tdac.select_partition(vectors)
        assert partition == Partition.whole(vectors.attributes)

        result = select_k_silhouette(matrix, seed=0)
        assert (
            Partition.from_labels(vectors.attributes, result.labels)
            == partition
        )


class TestElbowSelection:
    def test_finds_planted_group_count(self):
        data = grouped_binary(n_groups=3, rows_per_group=5)
        result = select_k_elbow(data, seed=0)
        assert result.k == 3

    def test_scores_are_inertias(self):
        data = grouped_binary(n_groups=2)
        result = select_k_elbow(data, seed=0)
        ks = sorted(result.scores)
        for a, b in zip(ks, ks[1:]):
            assert result.scores[b] <= result.scores[a] + 1e-6

    def test_two_candidates_pick_larger_k_on_sharp_drop(self):
        """Three clean clusters, sweep capped at [2, 3]: the inertia
        drop from 2 to 3 removes nearly all remaining inertia, so the
        old unconditional ``ks[0]`` answer (k=2) was wrong."""
        data = grouped_binary(n_groups=3, rows_per_group=5)
        result = select_k_elbow(data, k_min=2, k_max=3, seed=0)
        assert sorted(result.scores) == [2, 3]
        assert result.k == 3

    def test_two_candidates_keep_smaller_k_on_flat_curve(self):
        """Two clean clusters, sweep capped at [2, 3]: going to 3 buys
        almost nothing, so the smaller k must win."""
        data = grouped_binary(n_groups=2, rows_per_group=6)
        result = select_k_elbow(data, k_min=2, k_max=3, seed=0)
        assert sorted(result.scores) == [2, 3]
        assert result.k == 2


class TestGapSelection:
    def test_returns_some_k_in_range(self):
        data = grouped_binary(n_groups=3)
        result = select_k_gap(data, seed=0, n_references=3)
        assert 2 <= result.k <= len(data) - 1

    def test_labels_match_chosen_k(self):
        data = grouped_binary(n_groups=3)
        result = select_k_gap(data, seed=0, n_references=3)
        assert len(np.unique(result.labels)) == result.k


def test_registry_exposes_all_strategies():
    assert set(K_SELECTORS) == {"silhouette", "elbow", "gap"}
