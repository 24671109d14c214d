"""Loop oracles for k-means++ seeding and label compaction.

Production seeding (:func:`repro.clustering.kmeans.initial_centroids`)
reads each seed's squared-distance vector from a lazy per-row memo and
draws every pick by inverse CDF.  The per-draw loop it replaced — one
``np.sum((data - c) ** 2)`` per seed and one ``rng.choice(n, p=…)`` per
draw — and the per-row dict loop of ``_compact_labels`` live here, so
tests can pin the production code to them bit for bit, generator state
included.
"""

from __future__ import annotations

import numpy as np


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


def compact_labels_loop(
    labels: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row dict renumbering of labels in first-seen order."""
    seen: dict[int, int] = {}
    compacted = np.empty_like(labels)
    for i, label in enumerate(labels):
        compacted[i] = seen.setdefault(int(label), len(seen))
    return compacted, centroids[list(seen)]
