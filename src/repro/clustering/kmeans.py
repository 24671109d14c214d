"""Lloyd's k-means with k-means++ seeding, implemented from scratch.

scikit-learn is not a dependency of this reproduction, so the clustering
substrate the paper relies on is built here: standard Lloyd iterations
minimising the within-cluster sum of squared distances (the paper's
Equation 3), k-means++ or random initialisation, several restarts keeping
the best inertia, and deterministic behaviour through an explicit random
generator.

The module exposes its internals at three altitudes so the k-sweep of
Algorithm 1 (:mod:`repro.clustering.sweep`) can share work across fits:

* :class:`KMeans` — the classic fit-and-restart front end;
* :func:`initial_centroid_sequence` — draw the restart seedings of one
  fit, consuming the generator in exactly the order ``fit`` would;
* :func:`lloyd` — the deterministic iteration from a given seeding.

Because ``lloyd`` draws no randomness, splitting a fit into "draw the
seedings, then iterate each" is bit-identical to the classic restart
loop.

Every k-means++ seed is a data row, so seeding works from a
:class:`RowDistances` memo: the squared-distance vector of row ``i`` to
every row, ``np.sum((data - data[i]) ** 2, axis=1)``, is computed the
first time row ``i`` is picked and reused by every later draw, restart
and (in a sweep) every ``k``.  Each pick is drawn by the inverse-CDF
step that ``Generator.choice(n, p=p)`` runs internally, so the seedings
and the generator state are those of the per-draw ``rng.choice`` loop
(pinned against ``tests/oracles/kmeans.py`` in ``tests/test_kmeans.py``).

For the binary attribute truth vectors the squared Euclidean objective
coincides with the paper's Hamming-distance objective (Eq. 2), see
:mod:`repro.clustering.distance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this many rows a Python loop over rows beats ``np.ufunc.at``'s
# per-element dispatch by an order of magnitude; both accumulate in row
# order so the results are bit-identical.
_SCATTER_LOOP_MAX_ROWS = 512


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means fit.

    Attributes
    ----------
    labels:
        Cluster id of every input row, in ``range(k)`` with no gaps.
    centroids:
        ``(k, n_features)`` array of cluster centres.
    inertia:
        Within-cluster sum of squared Euclidean distances (Eq. 3).
    n_iterations:
        Lloyd iterations of the best restart.
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    n_iterations: int

    @property
    def k(self) -> int:
        """Number of clusters."""
        return len(self.centroids)

    def clusters(self) -> list[list[int]]:
        """Row indices grouped by cluster id."""
        groups: list[list[int]] = [[] for _ in range(self.k)]
        for row, label in enumerate(self.labels):
            groups[int(label)].append(row)
        return groups


class KMeans:
    """Lloyd's algorithm with k-means++ seeding and restarts.

    Parameters
    ----------
    n_clusters:
        The ``k`` to fit.
    n_init:
        Number of independent restarts; the fit with the lowest inertia
        wins.
    max_iterations:
        Cap on Lloyd iterations per restart.
    tolerance:
        Stop when no centroid moves by more than this (squared norm).
    init:
        ``"k-means++"`` (default) or ``"random"`` seeding.
    seed:
        Integer seed or :class:`numpy.random.Generator` for determinism.
    """

    def __init__(
        self,
        n_clusters: int,
        n_init: int = 10,
        max_iterations: int = 300,
        tolerance: float = 1e-6,
        init: str = "k-means++",
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        if n_init < 1:
            raise ValueError("n_init must be at least 1")
        if init not in ("k-means++", "random"):
            raise ValueError(f"unknown init strategy {init!r}")
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.init = init
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------

    def fit(self, data: np.ndarray) -> KMeansResult:
        """Cluster the rows of ``data`` into ``n_clusters`` groups."""
        data = check_rows(data)
        n_rows = len(data)
        if self.n_clusters > n_rows:
            raise ValueError(
                f"cannot fit {self.n_clusters} clusters to {n_rows} rows"
            )
        seedings = initial_centroid_sequence(
            data, self.n_clusters, self.n_init, self._rng, init=self.init
        )
        data_norms = np.einsum("ij,ij->i", data, data)
        best: KMeansResult | None = None
        for centroids in seedings:
            result = lloyd(
                data,
                centroids,
                max_iterations=self.max_iterations,
                tolerance=self.tolerance,
                data_norms=data_norms,
            )
            if best is None or result.inertia < best.inertia:
                best = result
        assert best is not None
        return best


# ----------------------------------------------------------------------
# Seeding
# ----------------------------------------------------------------------


def check_rows(data: np.ndarray) -> np.ndarray:
    """``data`` as a finite 2-D float matrix of row vectors."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("expected a 2-D matrix of row vectors")
    if not np.isfinite(data).all():
        raise ValueError("data contains NaN or infinite values")
    return data


class RowDistances:
    """Lazy memo of each row's squared distances to every row.

    ``memo[i]`` is ``np.sum((data - data[i]) ** 2, axis=1)``, computed on
    first use and kept, so memory is (distinct rows asked for) × n and
    never a full n × n table.  Callers must not write into a row.
    """

    def __init__(self, data: np.ndarray) -> None:
        self.data = data
        self._rows: dict[int, np.ndarray] = {}

    def __getitem__(self, row: int) -> np.ndarray:
        distances = self._rows.get(row)
        if distances is None:
            distances = np.sum((self.data - self.data[row]) ** 2, axis=1)
            self._rows[row] = distances
        return distances


def initial_centroid_sequence(
    data: np.ndarray,
    n_clusters: int,
    n_init: int,
    rng: np.random.Generator,
    init: str = "k-means++",
    row_distances: RowDistances | None = None,
) -> list[np.ndarray]:
    """The restart seedings of one fit, drawn up front.

    Consumes ``rng`` in exactly the order :meth:`KMeans.fit` would (one
    seeding per restart, back to back), so running the returned seedings
    through :func:`lloyd` reproduces the fit bit for bit.  One
    ``row_distances`` memo of ``data`` serves every restart; pass one in
    to share it across calls as well.
    """
    if row_distances is None:
        row_distances = RowDistances(data)
    return [
        initial_centroids(data, n_clusters, rng, init, row_distances)
        for _ in range(n_init)
    ]


def initial_centroids(
    data: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
    init: str = "k-means++",
    row_distances: RowDistances | None = None,
) -> np.ndarray:
    """One seeding: k-means++ spreading or uniform row sampling."""
    n_rows = len(data)
    if init == "random":
        chosen = rng.choice(n_rows, size=n_clusters, replace=False)
        return data[chosen].copy()
    if init != "k-means++":
        raise ValueError(f"unknown init strategy {init!r}")
    if row_distances is None:
        row_distances = RowDistances(data)
    # k-means++: spread seeds proportionally to squared distance from
    # the nearest already-chosen seed.
    picks = [int(rng.integers(n_rows))]
    closest = row_distances[picks[0]].copy()
    for _ in range(1, n_clusters):
        total = float(closest.sum())
        if not math.isfinite(total):
            raise ValueError("squared distances between rows are not finite")
        if total <= 0.0:
            # All remaining points coincide with a seed; pick any
            # distinct row to keep the requested k.
            remaining = np.setdiff1d(
                np.arange(n_rows), [int(rng.integers(n_rows))]
            )
            pick = int(rng.choice(remaining))
        else:
            pick = draw_weighted(closest / total, rng)
        picks.append(pick)
        np.minimum(closest, row_distances[pick], out=closest)
    return data[picks]


def draw_weighted(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """``int(rng.choice(len(p), p=p))`` without ``choice``'s checks.

    The inverse-CDF steps ``Generator.choice`` runs for one weighted
    draw with replacement: the same pick and the same generator state.
    """
    cdf = np.cumsum(probabilities)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


# ----------------------------------------------------------------------
# Iteration
# ----------------------------------------------------------------------


def lloyd(
    data: np.ndarray,
    seeding: np.ndarray,
    max_iterations: int = 300,
    tolerance: float = 1e-6,
    data_norms: np.ndarray | None = None,
) -> KMeansResult:
    """Lloyd iterations from a given seeding; draws no randomness.

    ``data_norms`` may carry the precomputed per-row squared norms
    (``einsum("ij,ij->i", data, data)``); they depend only on ``data``,
    so one computation serves every restart and every ``k`` of a sweep.
    """
    data = np.asarray(data, dtype=float)
    if data_norms is None:
        data_norms = np.einsum("ij,ij->i", data, data)
    centroids = np.asarray(seeding, dtype=float)
    n_clusters = len(centroids)
    labels = np.zeros(len(data), dtype=np.int64)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        distances = _squared_distances(data, centroids, data_norms)
        labels = np.argmin(distances, axis=1)
        new_centroids = _update_centroids(
            data, labels, centroids, n_clusters, data_norms
        )
        shift = float(np.max(np.sum((new_centroids - centroids) ** 2, axis=1)))
        centroids = new_centroids
        if shift <= tolerance:
            break
    distances = _squared_distances(data, centroids, data_norms)
    labels = np.argmin(distances, axis=1)
    labels, centroids = _compact_labels(labels, centroids)
    inertia = float(
        np.sum(np.min(_squared_distances(data, centroids, data_norms), axis=1))
    )
    return KMeansResult(
        labels=labels,
        centroids=centroids,
        inertia=inertia,
        n_iterations=iterations,
    )


def _update_centroids(
    data: np.ndarray,
    labels: np.ndarray,
    previous: np.ndarray,
    n_clusters: int,
    data_norms: np.ndarray | None = None,
) -> np.ndarray:
    sums = np.zeros_like(previous)
    if len(data) <= _SCATTER_LOOP_MAX_ROWS:
        # Row-order accumulation, same addition order as np.add.at.
        for row, label in zip(data, labels):
            sums[label] += row
    else:
        np.add.at(sums, labels, data)
    counts = np.bincount(labels, minlength=n_clusters).astype(float)
    occupied = counts > 0
    centroids = previous.copy()
    centroids[occupied] = sums[occupied] / counts[occupied, None]
    empty = np.flatnonzero(~occupied)
    if len(empty):
        # Empty-cluster repair: reseed at the points farthest from
        # their assigned centroid, a standard Lloyd fix-up.
        distances = _squared_distances(data, previous, data_norms)
        assigned = np.min(distances, axis=1)
        farthest = np.argsort(-assigned)
        for slot, cluster in enumerate(empty):
            centroids[cluster] = data[farthest[slot % len(data)]]
    return centroids


def _squared_distances(
    data: np.ndarray,
    centroids: np.ndarray,
    data_norms: np.ndarray | None = None,
) -> np.ndarray:
    """``(n_rows, k)`` squared Euclidean distances to every centroid.

    Uses the Gram expansion ``|x|^2 + |c|^2 - 2 x.c`` so the heavy part
    is one BLAS matrix product instead of a broadcast (n, k, d) cube.
    ``data_norms`` optionally carries the row norms, which are constant
    across Lloyd iterations and restarts.
    """
    if data_norms is None:
        data_norms = np.einsum("ij,ij->i", data, data)
    centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
    cross = data @ centroids.T
    distances = data_norms[:, None] + centroid_norms[None, :] - 2.0 * cross
    return np.maximum(distances, 0.0)


def _compact_labels(
    labels: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Renumber labels to remove empty clusters, keeping first-seen order."""
    present, first_seen = np.unique(labels, return_index=True)
    kept = present[np.argsort(first_seen)]
    remap = np.empty(len(centroids), dtype=labels.dtype)
    remap[kept] = np.arange(len(kept))
    return remap[labels], centroids[kept]


def inertia_of(data: np.ndarray, labels: np.ndarray) -> float:
    """Within-cluster sum of squares of an arbitrary labelling."""
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels)
    total = 0.0
    for cluster in np.unique(labels):
        members = data[labels == cluster]
        centroid = members.mean(axis=0)
        total += float(np.sum((members - centroid) ** 2))
    return total
