"""The k-means restart sweep of Algorithm 1.

TD-AC (and the alternative k-selectors) refit k-means for every
``k in [2, |A|-1]`` with ``n_init`` restarts each.  For every ``k`` this
module draws the restart seedings from a fresh generator seeded like
``KMeans(seed=seed)`` — consuming it in exactly the order
:meth:`KMeans.fit` would — runs :func:`repro.clustering.kmeans.lloyd`
from each, and keeps the first restart that strictly improves the
inertia, the same tie-break as the classic restart loop.  The result is
bit-identical to calling ``KMeans(n_clusters=k, n_init=n_init,
seed=seed).fit(data)`` for every ``k``.  Two things are computed once
and shared by every solve of the sweep: the per-row squared norms that
Lloyd uses, and the :class:`~repro.clustering.kmeans.RowDistances` memo
that k-means++ seeds from, which evaluates each picked row's distance
vector once instead of once per draw.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.clustering.kmeans import (
    KMeansResult,
    RowDistances,
    check_rows,
    initial_centroid_sequence,
    lloyd,
)
from repro.observability import current_tracer


def sweep_kmeans(
    data: np.ndarray,
    k_values: Iterable[int],
    n_init: int = 10,
    seed: int = 0,
    init: str = "k-means++",
    max_iterations: int = 300,
    tolerance: float = 1e-6,
) -> dict[int, KMeansResult]:
    """Best-of-``n_init`` k-means fit for every ``k`` in ``k_values``.

    Equivalent to ``{k: KMeans(n_clusters=k, n_init=n_init, seed=seed,
    init=init).fit(data) for k in k_values}`` — bit for bit — with the
    data row norms and the seeding's row distances computed once for
    the whole sweep.
    """
    if n_init < 1:
        raise ValueError("n_init must be at least 1")
    if init not in ("k-means++", "random"):
        raise ValueError(f"unknown init strategy {init!r}")
    data = check_rows(data)
    k_values = list(k_values)
    if not k_values:
        return {}
    n_rows = len(data)
    for k in k_values:
        if k < 1:
            raise ValueError("every k must be at least 1")
        if k > n_rows:
            raise ValueError(f"cannot fit {k} clusters to {n_rows} rows")
    with current_tracer().span(
        "k_sweep", n_candidates=len(k_values), n_init=n_init
    ):
        data_norms = np.einsum("ij,ij->i", data, data)
        row_distances = RowDistances(data)
        best: dict[int, KMeansResult] = {}
        for k in k_values:
            rng = np.random.default_rng(seed)
            for seeding in initial_centroid_sequence(
                data, k, n_init, rng, init, row_distances
            ):
                result = lloyd(
                    data, seeding, max_iterations, tolerance, data_norms
                )
                incumbent = best.get(k)
                if incumbent is None or result.inertia < incumbent.inertia:
                    best[k] = result
        return best
