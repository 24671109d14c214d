"""Distance metrics and pairwise matrices for attribute clustering.

The paper measures attribute similarity with the Hamming distance over
binary truth vectors (its Equation 2).  For 0/1 vectors Hamming equals
squared Euclidean distance, which is why running standard k-means on the
binary matrix minimises exactly the paper's clustering objective.

``masked_hamming`` is the missing-data-aware variant motivated by the
paper's first research perspective: ranks where the source did not cover
the (object, attribute) cell carry no information, so the distance is
computed only over mutually observed ranks and rescaled to the full
vector length.
"""

from __future__ import annotations

import numpy as np


def hamming(a: np.ndarray, b: np.ndarray) -> float:
    """Number of positions where two equal-length vectors differ.

    For binary vectors this is ``sum |a_i - b_i|``, the paper's Eq. 2.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("vectors must have the same shape")
    return float(np.sum(a != b))


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Plain Euclidean distance."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("vectors must have the same shape")
    return float(np.linalg.norm(a - b))


def masked_hamming(
    a: np.ndarray, b: np.ndarray, mask_a: np.ndarray, mask_b: np.ndarray
) -> float:
    """Hamming distance over mutually observed positions, rescaled.

    ``mask_*`` are boolean vectors marking observed ranks.  The distance
    counts disagreements on positions both vectors observe and rescales
    by ``len / observed`` so sparsely-overlapping pairs are not
    artificially close.  Pairs with no overlap get the maximal distance.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mask_a = np.asarray(mask_a, dtype=bool)
    mask_b = np.asarray(mask_b, dtype=bool)
    if not (a.shape == b.shape == mask_a.shape == mask_b.shape):
        raise ValueError("vectors and masks must have the same shape")
    mask = mask_a & mask_b
    observed = int(mask.sum())
    if observed == 0:
        return float(len(a))
    raw = float(np.sum(a[mask] != b[mask]))
    return raw * len(a) / observed


# Memory budget for the non-binary pairwise fallback: the comparison is
# evaluated in row chunks so the intermediate boolean block stays within
# roughly this many elements instead of materialising an (n, n, d) cube.
_CHUNK_ELEMENT_BUDGET = 4_000_000


def pairwise_hamming(matrix: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distance matrix of the rows of ``matrix``.

    Vectorised for binary inputs: ``d(x, y) = sum x + sum y - 2 x.y``.
    Non-binary inputs fall back to elementwise comparison, evaluated in
    row chunks so memory stays bounded by ``_CHUNK_ELEMENT_BUDGET``
    instead of growing as ``n^2 * d``.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix of row vectors")
    unique = np.unique(matrix)
    if np.isin(unique, (0.0, 1.0)).all():
        gram = matrix @ matrix.T
        row_sums = matrix.sum(axis=1)
        distances = row_sums[:, None] + row_sums[None, :] - 2.0 * gram
        return np.maximum(distances, 0.0)
    n, d = matrix.shape
    distances = np.empty((n, n), dtype=float)
    chunk = max(1, _CHUNK_ELEMENT_BUDGET // max(n * d, 1))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = matrix[start:stop, None, :] != matrix[None, :, :]
        distances[start:stop] = block.sum(axis=2)
    return distances


def _rescale_overlap(raw: np.ndarray, observed: np.ndarray, length: int) -> np.ndarray:
    """Rescale overlap-restricted disagreement counts to full length.

    The zero-overlap distance is defined **explicitly**: a pair with no
    mutually observed position carries no agreement evidence and gets
    the maximal distance ``length`` (matching the scalar
    :func:`masked_hamming`).  The division is evaluated only where
    ``observed > 0`` — never on the zero-overlap cells — so no NaN or
    inf can leak into the matrix and silently poison the silhouette
    scores or the integral-distance fast path downstream.
    """
    scaled = np.full_like(raw, float(length))
    np.divide(raw * length, observed, out=scaled, where=observed > 0)
    return scaled


def pairwise_masked_hamming(matrix: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Pairwise :func:`masked_hamming` matrix of the rows of ``matrix``.

    Zero-overlap pairs get the maximal distance ``length`` (see
    :func:`_rescale_overlap`); the result is always finite.
    """
    matrix = np.asarray(matrix, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if matrix.shape != mask.shape:
        raise ValueError("matrix and mask must have the same shape")
    n, length = matrix.shape
    observed = mask.astype(float) @ mask.astype(float).T
    masked = np.where(mask, matrix, 0.0)
    # Disagreements over mutually observed binary positions:
    # |x - y| summed = sum x + sum y - 2 x.y restricted to the overlap.
    gram = masked @ masked.T
    ones = mask.astype(float)
    sums_in_overlap_a = masked @ ones.T  # sum of a over positions b observes
    sums_in_overlap_b = ones @ masked.T
    raw = sums_in_overlap_a + sums_in_overlap_b - 2.0 * gram
    scaled = _rescale_overlap(raw, observed, length)
    np.fill_diagonal(scaled, 0.0)
    return np.maximum(scaled, 0.0)


def pairwise_euclidean(matrix: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distance matrix of the rows of ``matrix``."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix of row vectors")
    squared = np.sum(matrix**2, axis=1)
    gram = matrix @ matrix.T
    distances = squared[:, None] + squared[None, :] - 2.0 * gram
    return np.sqrt(np.maximum(distances, 0.0))


PAIRWISE_METRICS = {
    "hamming": pairwise_hamming,
    "euclidean": pairwise_euclidean,
}


def pairwise(matrix: np.ndarray, metric: str = "hamming") -> np.ndarray:
    """Pairwise distance matrix under a named metric."""
    try:
        fn = PAIRWISE_METRICS[metric]
    except KeyError:
        known = ", ".join(sorted(PAIRWISE_METRICS))
        raise ValueError(f"unknown metric {metric!r}; known: {known}") from None
    return fn(matrix)
