"""Loop oracles for k-means: seeding, Lloyd, restarts and the k sweep.

Production k-means (:func:`repro.clustering.kmeans.fit_streams`) advances
every seeding and every Lloyd solve of a sweep in lockstep.  The
sequential code it replaced lives here, so tests can pin the engine to
it bit for bit — labels, centroids, inertia, iteration counts and
generator state:

* :func:`initial_centroids_loop` — one seeding, one ``np.sum((data -
  c) ** 2)`` per seed and one ``rng.choice(n, p=…)`` per draw;
* :func:`lloyd_loop` — one solve: a 2-D ``data @ centroids.T`` per
  iteration, a per-row centroid sum, and a final recompute of labels
  and inertia after convergence;
* :func:`kmeans_loop` — the classic restart loop of ``KMeans.fit``;
* :func:`sweep_loop` — one restart loop per ``k``, each from a fresh
  ``default_rng(seed)``;
* :func:`compact_labels_loop` — the per-row dict renumbering of labels.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.kmeans import KMeansResult


def initial_centroids_loop(
    data: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
    init: str = "k-means++",
) -> np.ndarray:
    """One seeding, recomputing each seed's distances and calling ``choice``."""
    n_rows = len(data)
    if init == "random":
        chosen = rng.choice(n_rows, size=n_clusters, replace=False)
        return data[chosen].copy()
    first = int(rng.integers(n_rows))
    centroids = [data[first]]
    closest = np.sum((data - centroids[0]) ** 2, axis=1)
    for _ in range(1, n_clusters):
        total = float(closest.sum())
        if not np.isfinite(total):
            raise ValueError("squared distances between rows are not finite")
        if total <= 0.0:
            remaining = np.setdiff1d(
                np.arange(n_rows), [int(rng.integers(n_rows))]
            )
            pick = int(rng.choice(remaining))
        else:
            probabilities = closest / total
            pick = int(rng.choice(n_rows, p=probabilities))
        centroids.append(data[pick])
        closest = np.minimum(
            closest, np.sum((data - centroids[-1]) ** 2, axis=1)
        )
    return np.asarray(centroids)


def squared_distances_loop(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(n, k)`` Gram-form squared distances from one 2-D product."""
    data_norms = np.einsum("ij,ij->i", data, data)
    centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
    cross = data @ centroids.T
    distances = data_norms[:, None] + centroid_norms[None, :] - 2.0 * cross
    return np.maximum(distances, 0.0)


def update_centroids_loop(
    data: np.ndarray, labels: np.ndarray, previous: np.ndarray
) -> np.ndarray:
    """Per-row cluster sums; empty clusters reseeded at far points."""
    n_clusters = len(previous)
    sums = np.zeros_like(previous)
    for row, label in zip(data, labels):
        sums[label] += row
    counts = np.bincount(labels, minlength=n_clusters).astype(float)
    occupied = counts > 0
    centroids = previous.copy()
    centroids[occupied] = sums[occupied] / counts[occupied, None]
    empty = np.flatnonzero(~occupied)
    if len(empty):
        assigned = np.min(squared_distances_loop(data, previous), axis=1)
        farthest = np.argsort(-assigned)
        for slot, cluster in enumerate(empty):
            centroids[cluster] = data[farthest[slot % len(data)]]
    return centroids


def compact_labels_loop(
    labels: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row dict renumbering of labels in first-seen order."""
    seen: dict[int, int] = {}
    compacted = np.empty_like(labels)
    for i, label in enumerate(labels):
        compacted[i] = seen.setdefault(int(label), len(seen))
    return compacted, centroids[list(seen)]


def lloyd_loop(
    data: np.ndarray,
    seeding: np.ndarray,
    max_iterations: int = 300,
    tolerance: float = 1e-6,
) -> KMeansResult:
    """One Lloyd solve, iteration by iteration."""
    centroids = np.asarray(seeding, dtype=float)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        labels = np.argmin(squared_distances_loop(data, centroids), axis=1)
        updated = update_centroids_loop(data, labels, centroids)
        shift = float(np.max(np.sum((updated - centroids) ** 2, axis=1)))
        centroids = updated
        if shift <= tolerance:
            break
    labels = np.argmin(squared_distances_loop(data, centroids), axis=1)
    labels, centroids = compact_labels_loop(labels, centroids)
    inertia = float(
        np.sum(np.min(squared_distances_loop(data, centroids), axis=1))
    )
    return KMeansResult(labels, centroids, inertia, iterations)


def kmeans_loop(
    data: np.ndarray,
    n_clusters: int,
    n_init: int,
    rng: np.random.Generator,
    init: str = "k-means++",
    max_iterations: int = 300,
    tolerance: float = 1e-6,
) -> tuple[KMeansResult, list[KMeansResult]]:
    """The classic restart loop: the best fit and every restart's."""
    restarts = []
    best = None
    for _ in range(n_init):
        seeding = initial_centroids_loop(data, n_clusters, rng, init)
        result = lloyd_loop(data, seeding, max_iterations, tolerance)
        restarts.append(result)
        if best is None or result.inertia < best.inertia:
            best = result
    return best, restarts


def sweep_loop(
    data: np.ndarray,
    k_values,
    n_init: int = 10,
    seed: int = 0,
    init: str = "k-means++",
    max_iterations: int = 300,
    tolerance: float = 1e-6,
) -> tuple[dict[int, KMeansResult], int]:
    """One restart loop per ``k``; also the total Lloyd iterations."""
    fits = {}
    iterations = 0
    for k in k_values:
        rng = np.random.default_rng(seed)
        fits[k], restarts = kmeans_loop(
            data, k, n_init, rng, init, max_iterations, tolerance
        )
        iterations += sum(r.n_iterations for r in restarts)
    return fits, iterations
