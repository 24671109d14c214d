"""Lloyd's k-means with k-means++ seeding, implemented from scratch.

scikit-learn is not a dependency of this reproduction, so the clustering
substrate the paper relies on is built here: standard Lloyd iterations
minimising the within-cluster sum of squared distances (the paper's
Equation 3), k-means++ or random initialisation, several restarts keeping
the best inertia, and deterministic behaviour through an explicit random
generator.

Every fit runs through one lockstep engine, :func:`fit_streams`.  A
*stream* is a ``(k, generator)`` pair that draws ``n_init`` restart
seedings back to back, exactly as one classic restart loop would; the
k-sweep of Algorithm 1 (:mod:`repro.clustering.sweep`) is one stream per
``k``, and :meth:`KMeans.fit` is a single stream over its own generator.
Because Lloyd draws no randomness, "draw every seeding, then iterate
every solve" is bit-identical to the classic loop, and both halves can
advance all solves at once:

* *Seeding.*  Each stream's generator is read once per restart — the
  first pick's ``integers(n)``, then ``random(k - 1)`` for the weighted
  draws, which is what the per-draw loop consumes as long as no draw
  meets an all-zero distance vector.  Every seeding of every stream then
  advances one pick per step as one stacked array: a row-wise ``sum``,
  divide and ``cumsum``, and ``(cdf <= u).sum(axis=1)``, which equals
  ``Generator.choice``'s ``searchsorted(u, side="right")`` on a
  non-decreasing CDF.  Every k-means++ seed is a data row, so squared
  distances come from a :class:`RowDistances` slot buffer that computes
  row ``i``'s vector once.  A stream that meets an all-zero (or
  non-finite) distance vector is redrawn from its saved generator state
  by the per-draw loop, whose branch consumes the generator differently.
* *Lloyd.*  The live solves form a pool of about :data:`_POOL_BYTES`
  of working set, topped up from the pending seedings after every step.
  Per step, each group of same-``k`` solves gets one stacked
  ``np.matmul`` (BLAS runs once per slice with the shapes of the 2-D
  call, so the distances are those of a per-solve loop), centroid sums
  add one data row per call across all live solves (so each cluster
  still adds its rows in row order; for integer-valued data, whose sums
  are exact in any order, one one-hot product), and each solve retires
  as it converges.  A solve whose labels repeat with no empty cluster retires
  at once: its next update would reproduce its centroids bit for bit,
  so its shift would be zero.

The per-solve loops the engine replaced live in ``tests/oracles/kmeans.py``
and pin it bit for bit in ``tests/test_kmeans.py`` — labels, centroids,
inertia, iteration counts and generator state.

For the binary attribute truth vectors the squared Euclidean objective
coincides with the paper's Hamming-distance objective (Eq. 2), see
:mod:`repro.clustering.distance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# Below this many rows a Python loop over rows beats ``np.ufunc.at``'s
# per-element dispatch by an order of magnitude; both accumulate in row
# order so the results are bit-identical.
_SCATTER_LOOP_MAX_ROWS = 512

# Working-set budget of the pool of lockstep Lloyd solves (see
# ``_cluster_bytes``), of a batch of finished solves and of a group of
# lockstep seedings.  A larger pool amortises numpy dispatch over more
# solves until it falls out of the core's cache.  Of 2**19 to 2**22,
# 2**21 was fastest on DS2 shapes, within noise of the best on Exam 62,
# and keeps the Exam 62 sweep under 8 MiB.  A solve larger than the
# budget runs alone.
_POOL_BYTES = 2**21


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
        (best,), _ = fit_streams(
            data,
            [(self.n_clusters, self._rng)],
            self.n_init,
            self.init,
            self.max_iterations,
            self.tolerance,
        )
        return best


def fit_streams(
    data: np.ndarray,
    streams: Sequence[tuple[int, np.random.Generator]],
    n_init: int,
    init: str = "k-means++",
    max_iterations: int = 300,
    tolerance: float = 1e-6,
) -> tuple[list[KMeansResult], int]:
    """Best-of-``n_init`` fit of every ``(k, generator)`` stream.

    Stream ``i`` draws its ``n_init`` seedings from its own generator in
    exactly the order ``KMeans(k, n_init).fit`` would, and its result is
    the first restart that strictly improves the inertia, the classic
    tie-break; so each result equals that fit bit for bit.  Streams must
    not share a generator.  ``data`` must already be a finite 2-D float
    matrix (:func:`check_rows`).  Also returns the Lloyd iterations run
    by all ``len(streams) * n_init`` solves together.
    """
    data_norms = np.einsum("ij,ij->i", data, data)
    picks = _seed_picks(data, streams, n_init, init)
    seedings = (data[p] for stream in picks for p in stream)
    # Solves finish out of order; the lowest (inertia, restart) is the
    # restart loop's first strict improvement.
    best: list[tuple[float, int, KMeansResult] | None] = [None] * len(streams)
    iterations = 0
    for solve, result in _solve(
        data, data_norms, seedings, max_iterations, tolerance
    ):
        stream, restart = divmod(solve, n_init)
        incumbent = best[stream]
        if incumbent is None or (result.inertia, restart) < incumbent[:2]:
            best[stream] = (result.inertia, restart, result)
        iterations += result.n_iterations
    return [entry[2] for entry in best], iterations  # type: ignore[index]


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
    """Lazy slot buffer of each row's squared distances to every row.

    Row ``i``'s vector ``np.sum((data - data[i]) ** 2, axis=1)`` is
    computed the first time ``i`` is asked for and kept in a slot, so
    one fancy gather serves any number of picks.  Memory is at most
    twice (distinct rows asked for) × n, never a full n × n table.
    """

    def __init__(self, data: np.ndarray) -> None:
        self.data = data
        self._slot = np.full(len(data), -1, dtype=np.intp)
        self._buffer = np.empty((0, len(data)))
        self._used = 0

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """A fresh ``(len(rows), n)`` array of the rows' vectors."""
        rows = np.asarray(rows, dtype=np.intp)
        slots = self._slot[rows]
        missing = slots < 0
        if missing.any():
            self._fill(np.unique(rows[missing]))
            slots = self._slot[rows]
        return self._buffer[slots]

    def _fill(self, rows: np.ndarray) -> None:
        needed = self._used + len(rows)
        if needed > len(self._buffer):
            capacity = max(needed, min(2 * len(self._buffer), len(self.data)))
            grown = np.empty((capacity, len(self.data)))
            grown[: self._used] = self._buffer[: self._used]
            self._buffer = grown
        for row in rows:
            self._buffer[self._used] = np.sum(
                (self.data - self.data[row]) ** 2, axis=1
            )
            self._slot[row] = self._used
            self._used += 1


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
    through :func:`lloyd` reproduces the fit bit for bit.  Pass a
    ``row_distances`` memo of ``data`` to share it across calls.
    """
    (picks,) = _seed_picks(
        data, [(n_clusters, rng)], n_init, init, row_distances
    )
    return [data[p] for p in picks]


def _seed_picks(
    data: np.ndarray,
    streams: Sequence[tuple[int, np.random.Generator]],
    n_init: int,
    init: str = "k-means++",
    row_distances: RowDistances | None = None,
) -> list[np.ndarray]:
    """The ``(n_init, k)`` data-row picks of every stream's seedings.

    k-means++ streams draw in lockstep, in groups of about
    :data:`_POOL_BYTES` of working set (three length-``n`` vectors per
    seeding).
    """
    n_rows = len(data)
    if init == "random":
        return [
            np.array(
                [rng.choice(n_rows, size=k, replace=False) for _ in range(n_init)]
            )
            for k, rng in streams
        ]
    if init != "k-means++":
        raise ValueError(f"unknown init strategy {init!r}")
    if row_distances is None:
        row_distances = RowDistances(data)
    per_group = max(1, _POOL_BYTES // (24 * n_rows * n_init))
    out: list[np.ndarray] = []
    for first in range(0, len(streams), per_group):
        out.extend(
            _seed_lockstep(
                data, streams[first : first + per_group], n_init, row_distances
            )
        )
    return out


def _seed_lockstep(
    data: np.ndarray,
    streams: Sequence[tuple[int, np.random.Generator]],
    n_init: int,
    row_distances: RowDistances,
) -> list[np.ndarray]:
    """k-means++ picks of ``streams``, every seeding one pick per step.

    Each generator is read once per restart, as the per-draw loop reads
    it while no draw meets an all-zero distance vector: ``integers(n)``
    for the first pick, then ``random(k - 1)``.  A stream that meets
    such a vector (or a non-finite one) is redrawn from its saved state
    by :func:`_seed_sequentially`.
    """
    n_rows = len(data)
    states = [rng.bit_generator.state for _, rng in streams]
    # Seedings in descending k, so the ones still drawing are a prefix.
    by_k = sorted(range(len(streams)), key=lambda s: -streams[s][0])
    owner = np.repeat(by_k, n_init)
    ks = np.array([streams[s][0] for s in owner], dtype=np.intp)
    width = int(ks.max())
    picks = np.zeros((len(ks), width), dtype=np.intp)
    uniforms = np.zeros((len(ks), width))
    for row, s in enumerate(owner):
        k, rng = streams[s]
        picks[row, 0] = rng.integers(n_rows)
        uniforms[row, 1:k] = rng.random(k - 1)
    closest = row_distances.gather(picks[:, 0])
    redraw = np.zeros(len(streams), dtype=bool)
    for j in range(1, width):
        live = int(np.searchsorted(-ks, -j, side="left"))
        block = closest[:live]
        totals = block.sum(axis=1)
        off_path = ~(np.isfinite(totals) & (totals > 0.0))
        if off_path.any():
            # The per-draw loop takes another branch here; those streams
            # are redrawn below, so any finite weights will do meanwhile.
            redraw[owner[:live][off_path]] = True
            block[off_path] = 1.0
            totals[off_path] = n_rows
        picks[:live, j] = draw_weighted(block / totals[:, None], uniforms[:live, j])
        np.minimum(block, row_distances.gather(picks[:live, j]), out=block)
    out = [picks[owner == s, : streams[s][0]] for s in range(len(streams))]
    for s in np.flatnonzero(redraw):
        k, rng = streams[s]
        rng.bit_generator.state = states[s]
        out[s] = _seed_sequentially(data, k, n_init, rng, row_distances)
    return out


def _seed_sequentially(
    data: np.ndarray,
    n_clusters: int,
    n_init: int,
    rng: np.random.Generator,
    row_distances: RowDistances,
) -> np.ndarray:
    """The per-draw k-means++ loop, for streams the lockstep cannot take."""
    n_rows = len(data)
    picks = np.empty((n_init, n_clusters), dtype=np.intp)
    for seeding in picks:
        seeding[0] = rng.integers(n_rows)
        closest = row_distances.gather(seeding[:1])[0]
        for j in range(1, n_clusters):
            total = float(closest.sum())
            if not math.isfinite(total):
                raise ValueError("squared distances between rows are not finite")
            if total <= 0.0:
                # All remaining points coincide with a seed; pick any
                # distinct row to keep the requested k.
                remaining = np.setdiff1d(
                    np.arange(n_rows), [int(rng.integers(n_rows))]
                )
                seeding[j] = rng.choice(remaining)
            else:
                seeding[j] = draw_weighted(
                    closest / total, np.asarray(rng.random())
                )
            np.minimum(
                closest, row_distances.gather(seeding[j : j + 1])[0], out=closest
            )
    return picks


def draw_weighted(probabilities: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Row-wise ``rng.choice(n, p=row)`` picks, given each draw's uniform.

    The inverse-CDF steps ``Generator.choice`` runs for one weighted
    draw with replacement — ``cumsum``, normalise, then
    ``searchsorted(u, side="right")``, written as a count of CDF entries
    ``<= u`` so every row of a stack draws in one call.
    """
    cdf = np.cumsum(probabilities, axis=-1)
    cdf /= cdf[..., -1:]
    return (cdf <= uniforms[..., None]).sum(axis=-1)


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
    (``einsum("ij,ij->i", data, data)``); they depend only on ``data``.
    """
    data = np.asarray(data, dtype=float)
    if data_norms is None:
        data_norms = np.einsum("ij,ij->i", data, data)
    seeding = np.asarray(seeding, dtype=float)
    ((_, result),) = _solve(
        data, data_norms, [seeding], max_iterations, tolerance
    )
    return result


class _Pool:
    """The live Lloyd solves.

    Per-solve arrays, plus one flat ``(sum of k, d)`` centroid array in
    which solve ``s`` owns ``ks[s]`` consecutive rows.  Solves are kept
    ordered by ``k``, so each same-``k`` group is a contiguous
    ``(solves, k, d)`` view.
    """

    def __init__(self, n_rows: int, n_features: int) -> None:
        self.ids = np.empty(0, dtype=np.intp)
        self.ks = np.empty(0, dtype=np.intp)
        self.ages = np.empty(0, dtype=np.intp)
        self.iterations = np.empty(0, dtype=np.intp)
        self.finishing = np.empty(0, dtype=bool)
        # Labels of the previous step; -1 before the first one.
        self.previous = np.empty((0, n_rows), dtype=np.intp)
        self.centroids = np.empty((0, n_features))

    def admit(
        self, batch: list[tuple[int, np.ndarray]], finishing: bool
    ) -> None:
        """Append fresh solves, then restore the order by ``k``."""
        size = len(batch)
        ks = np.array([len(seeding) for _, seeding in batch], dtype=np.intp)
        self.ids = np.concatenate((self.ids, [i for i, _ in batch]))
        self.ks = np.concatenate((self.ks, ks))
        self.ages = np.concatenate((self.ages, np.zeros(size, np.intp)))
        self.iterations = np.concatenate(
            (self.iterations, np.zeros(size, np.intp))
        )
        self.finishing = np.concatenate(
            (self.finishing, np.full(size, finishing))
        )
        self.previous = np.concatenate(
            (self.previous, np.full((size, self.previous.shape[1]), -1))
        )
        self.centroids = np.concatenate(
            (self.centroids, *(seeding for _, seeding in batch))
        )
        if (np.diff(self.ks) < 0).any():
            order = np.argsort(self.ks, kind="stable")
            ks = self.ks[order]
            rows = np.repeat(_starts(self.ks)[order] - _starts(ks), ks)
            self.centroids = self.centroids[rows + np.arange(len(rows))]
            self._take(order)

    def keep(self, solves: np.ndarray, rows: np.ndarray) -> None:
        """Drop every solve not in the ``solves`` mask (``rows``: the
        mask repeated over each solve's centroid rows)."""
        self.centroids = self.centroids[rows]
        self._take(solves)

    def _take(self, index: np.ndarray) -> None:
        for name in ("ids", "ks", "ages", "iterations", "finishing", "previous"):
            setattr(self, name, getattr(self, name)[index])


def _solve(
    data: np.ndarray,
    data_norms: np.ndarray,
    seedings: Iterable[np.ndarray],
    max_iterations: int,
    tolerance: float,
) -> Iterator[tuple[int, KMeansResult]]:
    """``(position, result)`` of every seeding, as the solves finish.

    All live solves step in lockstep.  After each step the pool is
    topped up from ``seedings`` to about :data:`_POOL_BYTES` of working
    set, so every step runs a full pool while seedings remain.  A solve
    that converged (or ran out of iterations) takes one more assignment
    step for its final labels, then retires; so does one whose labels
    repeat with no empty cluster.  Retired solves are finished in
    batches of about the same size.
    """
    n_rows, n_features = data.shape
    capacity = _POOL_BYTES // _cluster_bytes(n_rows, n_features)
    integral = _sums_are_exact(data)
    queue = enumerate(seedings)
    waiting = next(queue, None)
    pool = _Pool(n_rows, n_features)
    retired: list[tuple] = []
    retired_clusters = 0
    while True:
        batch: list[tuple[int, np.ndarray]] = []
        room = capacity - len(pool.centroids)
        while waiting is not None and (
            len(waiting[1]) <= room or not (len(pool.ks) or batch)
        ):
            batch.append(waiting)
            room -= len(waiting[1])
            waiting = next(queue, None)
        if batch:
            pool.admit(batch, finishing=max_iterations < 1)
        if not len(pool.ks):
            break
        pool.ages += 1
        starts = _starts(pool.ks)
        labels, groups = _assign(data, data_norms, pool.centroids, pool.ks)
        flat = labels + starts[:, None]
        counts = np.bincount(flat.ravel(), minlength=len(pool.centroids))
        full = np.minimum.reduceat(counts, starts) > 0
        retire = pool.finishing
        if tolerance >= 0:
            # Same labels, no empty cluster: the update would rebuild
            # these centroids bit for bit and the shift would be zero.
            confirmed = full & (labels == pool.previous).all(axis=1) & ~retire
            pool.iterations[confirmed] = pool.ages[confirmed]
            retire = retire | confirmed
        empty = np.flatnonzero(~full & ~retire)
        repairs = [_group_distances(groups, solve) for solve in empty]
        if retire.any():
            rows = np.repeat(retire, pool.ks)
            retired.append((
                pool.ids[retire], pool.ks[retire], labels[retire],
                pool.centroids[rows], pool.iterations[retire],
            ))
            retired_clusters += int(pool.ks[retire].sum())
            if retired_clusters >= capacity:
                yield from _finish(data, data_norms, retired)
                retired, retired_clusters = [], 0
            keep = ~retire
            pool.keep(keep, ~rows)
            if not len(pool.ks):
                continue
            empty = np.cumsum(keep)[empty] - 1
            labels, counts = labels[keep], counts[~rows]
            starts = _starts(pool.ks)
            flat = labels + starts[:, None]
        updated = _update_centroids(
            data, flat, counts, pool.centroids, integral
        )
        for solve, distances in zip(empty, repairs):
            _repair_empty(
                data, distances, counts, updated, starts[solve], pool.ks[solve]
            )
        # The old centroids are dead after this step: reuse them for the
        # shift.
        moved = pool.centroids
        np.subtract(updated, moved, out=moved)
        finishing = np.maximum.reduceat(
            np.square(moved, out=moved).sum(axis=1), starts
        ) <= tolerance
        finishing |= pool.ages >= max_iterations
        pool.iterations[finishing] = pool.ages[finishing]
        pool.finishing = finishing
        pool.centroids = updated
        pool.previous = labels
    if retired:
        yield from _finish(data, data_norms, retired)


def _sums_are_exact(data: np.ndarray) -> bool:
    """Whether every sum of rows of ``data`` is exact in any order.

    True for integer-valued data (such as 0/1 truth vectors) whose
    column sums stay below 2**53: every partial sum is then an exactly
    representable integer.
    """
    magnitude = np.abs(data)
    return bool(
        np.array_equal(data, np.trunc(data))
        and magnitude.sum(axis=0).max(initial=0.0) < 2.0**53
    )


def _cluster_bytes(n_rows: int, n_features: int) -> int:
    """Working set per cluster of a live solve: four centroid-sized and
    three distance-sized float arrays."""
    return 8 * (4 * n_features + 3 * n_rows)


def _starts(ks: np.ndarray) -> np.ndarray:
    """First centroid row of every solve in the flat layout."""
    starts = np.zeros(len(ks), dtype=np.intp)
    np.cumsum(ks[:-1], out=starts[1:])
    return starts


def _assign(
    data: np.ndarray,
    data_norms: np.ndarray,
    centroids: np.ndarray,
    ks: np.ndarray,
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """Labels ``(solves, n)`` and each same-``k`` group's distances."""
    n_features = data.shape[1]
    norms = np.einsum("ij,ij->i", centroids, centroids)
    labels = np.empty((len(ks), len(data)), dtype=np.intp)
    groups = []
    firsts = np.flatnonzero(np.diff(ks, prepend=0))
    row = 0
    for first, stop in zip(firsts, [*firsts[1:], len(ks)]):
        k = int(ks[first])
        size = (stop - first) * k
        distances = _squared_distances(
            data,
            data_norms,
            centroids[row : row + size].reshape(-1, k, n_features),
            norms[row : row + size].reshape(-1, k),
        )
        labels[first:stop] = distances.argmin(axis=2)
        groups.append((int(first), distances))
        row += size
    return labels, groups


def _group_distances(
    groups: list[tuple[int, np.ndarray]], solve: int
) -> np.ndarray:
    """The ``(n, k)`` distances of one solve from :func:`_assign`."""
    for first, distances in reversed(groups):
        if solve >= first:
            return distances[solve - first]
    raise IndexError(solve)


def _update_centroids(
    data: np.ndarray,
    flat_labels: np.ndarray,
    counts: np.ndarray,
    centroids: np.ndarray,
    integral: bool,
) -> np.ndarray:
    """Cluster means, rows added in row order; empty clusters keep theirs.

    ``flat_labels`` holds each solve's labels offset to its rows of the
    flat centroid array, so one indexed add per data row serves every
    solve and no index repeats within one add: each cluster sums
    ``((0 + x_1) + x_2) + ...`` exactly as a per-solve row loop does.
    When ``integral`` (see :func:`_sums_are_exact`) every partial sum is
    an exact integer, so any order gives those sums and one one-hot
    matrix product computes them all.
    """
    if integral:
        one_hot = np.zeros((len(centroids), data.shape[0]))
        one_hot[flat_labels, np.arange(data.shape[0])] = 1.0
        sums = one_hot @ data
    elif data.shape[0] <= _SCATTER_LOOP_MAX_ROWS:
        sums = np.zeros_like(centroids)
        for row, index in zip(data, flat_labels.T):
            sums[index] += row
    else:
        sums = np.zeros_like(centroids)
        np.add.at(sums, flat_labels, data)
    sizes = counts.astype(float)[:, None]
    occupied = counts > 0
    if occupied.all():
        sums /= sizes
    else:
        np.divide(sums, sizes, out=sums, where=occupied[:, None])
        sums[~occupied] = centroids[~occupied]
    return sums


def _repair_empty(
    data: np.ndarray,
    distances: np.ndarray,
    counts: np.ndarray,
    centroids: np.ndarray,
    start: int,
    n_clusters: int,
) -> None:
    """Empty-cluster repair of one solve: reseed at the points farthest
    from their assigned centroid, a standard Lloyd fix-up."""
    assigned = np.min(distances, axis=1)
    farthest = np.argsort(-assigned)
    empty = np.flatnonzero(counts[start : start + n_clusters] == 0)
    for slot, cluster in enumerate(empty):
        centroids[start + cluster] = data[farthest[slot % len(data)]]


def _squared_distances(
    data: np.ndarray,
    data_norms: np.ndarray,
    centroids: np.ndarray,
    centroid_norms: np.ndarray,
) -> np.ndarray:
    """``(solves, n, k)`` squared Euclidean distances to each solve's
    ``(k, d)`` centroids.

    Uses the Gram expansion ``|x|^2 + |c|^2 - 2 x.c``.  ``np.matmul``
    calls BLAS once per solve with the shapes of ``data @ c.T``, so each
    slice rounds exactly as the 2-D product would; one 2-D product over
    the concatenated centroids would not.
    """
    cross = np.matmul(data, centroids.transpose(0, 2, 1))
    distances = data_norms[:, None] + centroid_norms[:, None, :]
    cross *= 2.0
    distances -= cross
    return np.maximum(distances, 0.0, out=distances)


def _finish(
    data: np.ndarray,
    data_norms: np.ndarray,
    retired: list[tuple],
) -> Iterator[tuple[int, KMeansResult]]:
    """Compact labels and score inertia for every retired solve.

    Inertia uses only the kept centroids, as the classic fit does; the
    solves are stacked by kept-cluster count so each distance slice has
    the shapes of the per-solve product.
    """
    ids, ks, labels, centroids, iterations = (
        np.concatenate(column) for column in zip(*retired)
    )
    compacted, kept, n_kept = _compact_labels(labels, ks)
    kept_starts = _starts(n_kept)
    n_features = data.shape[1]
    for m in np.unique(n_kept):
        solves = np.flatnonzero(n_kept == m)
        survivors = centroids[kept[kept_starts[solves][:, None] + np.arange(m)]]
        flat = survivors.reshape(-1, n_features)
        norms = np.einsum("ij,ij->i", flat, flat).reshape(len(solves), m)
        inertia = _squared_distances(data, data_norms, survivors, norms)
        inertia = inertia.min(axis=2).sum(axis=1)
        for solve, solve_centroids, solve_inertia in zip(
            solves, survivors, inertia
        ):
            yield int(ids[solve]), KMeansResult(
                labels=compacted[solve].copy(),
                centroids=solve_centroids.copy(),
                inertia=float(solve_inertia),
                n_iterations=int(iterations[solve]),
            )


def _compact_labels(
    labels: np.ndarray, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Renumber stacked labels to remove empty clusters, first-seen order.

    Row ``s`` of ``labels`` holds one solve's labels in ``range(ks[s])``;
    its clusters own rows ``starts[s]:starts[s] + ks[s]`` of the flat
    layout.  Returns the renumbered labels, the flat rows of every
    solve's present clusters (solve by solve, each in first-seen order)
    and each solve's count of present clusters.
    """
    n_rows = labels.shape[1]
    starts = _starts(ks)
    owner = np.repeat(np.arange(len(ks)), ks)
    flat = (labels + starts[:, None]).ravel()
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    head = np.flatnonzero(np.diff(ordered, prepend=-1))
    first = np.full(len(owner), n_rows)
    first[ordered[head]] = order[head] % n_rows
    ranked = np.lexsort((first, owner))
    remap = np.empty(len(owner), dtype=labels.dtype)
    remap[ranked] = np.arange(len(owner)) - starts[owner[ranked]]
    kept = ranked[first[ranked] < n_rows]
    return (
        remap[labels + starts[:, None]],
        kept,
        np.bincount(owner[kept], minlength=len(ks)),
    )


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
