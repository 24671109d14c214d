"""Unit and property tests for distance metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.clustering import (
    euclidean,
    hamming,
    masked_hamming,
    pairwise,
    pairwise_euclidean,
    pairwise_hamming,
    pairwise_masked_hamming,
)


def binary_matrix(min_rows=2, max_rows=8, min_cols=1, max_cols=12):
    return st.integers(min_rows, max_rows).flatmap(
        lambda r: st.integers(min_cols, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(0, 1), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


class TestHamming:
    def test_identical_vectors(self):
        assert hamming([0, 1, 1], [0, 1, 1]) == 0.0

    def test_counts_differences(self):
        assert hamming([0, 1, 1, 0], [1, 1, 0, 0]) == 2.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            hamming([0, 1], [0, 1, 1])

    @given(binary_matrix(min_rows=2, max_rows=2))
    def test_equals_squared_euclidean_on_binary(self, rows):
        a, b = np.array(rows[0]), np.array(rows[1])
        assert hamming(a, b) == pytest.approx(euclidean(a, b) ** 2)


class TestPairwise:
    @given(binary_matrix())
    def test_pairwise_hamming_matches_elementwise(self, rows):
        matrix = np.array(rows, dtype=float)
        result = pairwise_hamming(matrix)
        n = len(matrix)
        for i in range(n):
            for j in range(n):
                assert result[i, j] == pytest.approx(
                    hamming(matrix[i], matrix[j])
                )

    @given(binary_matrix())
    def test_pairwise_is_symmetric_with_zero_diagonal(self, rows):
        matrix = np.array(rows, dtype=float)
        result = pairwise_hamming(matrix)
        assert np.allclose(result, result.T)
        assert np.allclose(np.diag(result), 0.0)

    def test_pairwise_hamming_non_binary_fallback(self):
        matrix = np.array([[1, 2, 3], [1, 2, 4], [5, 2, 3]], dtype=float)
        result = pairwise_hamming(matrix)
        assert result[0, 1] == 1
        assert result[0, 2] == 1
        assert result[1, 2] == 2

    def test_pairwise_euclidean(self):
        matrix = np.array([[0.0, 0.0], [3.0, 4.0]])
        result = pairwise_euclidean(matrix)
        assert result[0, 1] == pytest.approx(5.0)

    def test_pairwise_dispatch(self):
        matrix = np.array([[0, 1], [1, 1]], dtype=float)
        assert np.allclose(pairwise(matrix, "hamming"), pairwise_hamming(matrix))
        with pytest.raises(ValueError, match="unknown metric"):
            pairwise(matrix, "cosine")

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            pairwise_hamming(np.array([1.0, 0.0]))


class TestMaskedHamming:
    def test_full_masks_equal_plain(self):
        a = np.array([0, 1, 1, 0])
        b = np.array([1, 1, 0, 0])
        full = np.ones(4, dtype=bool)
        assert masked_hamming(a, b, full, full) == hamming(a, b)

    def test_no_overlap_is_maximal(self):
        a = np.array([0, 1])
        b = np.array([1, 1])
        assert masked_hamming(a, b, [True, False], [False, True]) == 2.0

    def test_rescaling(self):
        # 1 disagreement over 2 observed of 4 total -> 1 * 4/2 = 2.
        a = np.array([0, 1, 0, 0])
        b = np.array([1, 1, 0, 0])
        mask_a = np.array([True, True, False, False])
        mask_b = np.array([True, True, True, True])
        assert masked_hamming(a, b, mask_a, mask_b) == pytest.approx(2.0)

    def test_pairwise_masked_matches_elementwise(self):
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 2, size=(5, 9)).astype(float)
        mask = rng.random((5, 9)) < 0.7
        matrix = np.where(mask, matrix, 0.0)
        result = pairwise_masked_hamming(matrix, mask)
        for i in range(5):
            for j in range(5):
                if i == j:
                    assert result[i, j] == 0.0
                else:
                    expected = masked_hamming(
                        matrix[i], matrix[j], mask[i], mask[j]
                    )
                    assert result[i, j] == pytest.approx(expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            masked_hamming([0, 1], [0, 1], [True], [True, False])


class TestZeroOverlap:
    """Zero-overlap pairs must get the explicit maximal distance, never
    NaN/inf — NaN would silently disqualify the integral fast path and
    poison every silhouette score downstream."""

    def _disjoint(self):
        # Rows 0 and 1 observe disjoint halves; row 2 overlaps both.
        matrix = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
                [1.0, 1.0, 1.0, 0.0],
            ]
        )
        mask = np.array(
            [
                [True, True, False, False],
                [False, False, True, True],
                [True, True, True, True],
            ]
        )
        return np.where(mask, matrix, 0.0), mask

    def test_dense_zero_overlap_is_maximal_and_finite(self):
        matrix, mask = self._disjoint()
        distances = pairwise_masked_hamming(matrix, mask)
        assert np.isfinite(distances).all()
        length = matrix.shape[1]
        assert distances[0, 1] == float(length)
        assert distances[1, 0] == float(length)

    def test_fully_unobserved_row_is_finite(self):
        matrix = np.zeros((3, 4))
        matrix[0, 0] = 1.0
        mask = np.zeros((3, 4), dtype=bool)
        mask[0] = True  # rows 1 and 2 observe nothing at all
        distances = pairwise_masked_hamming(np.where(mask, matrix, 0.0), mask)
        assert np.isfinite(distances).all()
        assert distances[0, 1] == 4.0
        assert distances[1, 2] == 4.0  # mutual zero overlap
        assert distances[1, 1] == 0.0  # diagonal stays zero

    def test_zero_overlap_matches_scalar_definition(self):
        matrix, mask = self._disjoint()
        pairwise = pairwise_masked_hamming(matrix, mask)
        scalar = masked_hamming(matrix[0], matrix[1], mask[0], mask[1])
        assert pairwise[0, 1] == scalar

    def test_zero_overlap_distances_stay_on_integral_fast_path(self):
        """Full- and zero-overlap pairs both yield integral distances;
        the fast-path probe must accept them (a NaN would make it
        either reject silently or, now, fail loudly)."""
        from repro.clustering.kselect import _distances_are_integral

        matrix, mask = self._disjoint()
        distances = pairwise_masked_hamming(matrix, mask)
        assert _distances_are_integral(np.floor(distances)) in (True, False)
        assert np.isfinite(distances).all()

    def test_integral_probe_rejects_non_finite_loudly(self):
        from repro.clustering.kselect import _distances_are_integral

        poisoned = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            _distances_are_integral(poisoned)

    def test_silhouette_scoring_survives_zero_overlap(self):
        """End to end: a masked distance matrix with zero-overlap pairs
        must produce finite silhouette scores."""
        from repro.clustering.kselect import select_k_silhouette

        rng = np.random.default_rng(5)
        mask = np.zeros((6, 10), dtype=bool)
        mask[:3, :5] = True   # rows 0-2 observe the first half
        mask[3:, 5:] = True   # rows 3-5 observe the second half
        matrix = np.where(mask, rng.integers(0, 2, size=(6, 10)), 0).astype(
            float
        )
        distances = pairwise_masked_hamming(matrix, mask)
        result = select_k_silhouette(matrix, distances=distances, seed=0)
        assert np.isfinite(list(result.scores.values())).all()
