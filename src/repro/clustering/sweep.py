"""The k-means restart sweep of Algorithm 1.

TD-AC (and the alternative k-selectors) refit k-means for every
``k in [2, |A|-1]`` with ``n_init`` restarts each.  Each ``k`` is one
stream of :func:`repro.clustering.kmeans.fit_streams`: it draws its
restart seedings from a fresh generator seeded like ``KMeans(seed=seed)``
— consuming it in exactly the order :meth:`KMeans.fit` would — and keeps
the first restart that strictly improves the inertia, the same
tie-break as the classic restart loop.  The result is bit-identical to
calling ``KMeans(n_clusters=k, n_init=n_init, seed=seed).fit(data)``
for every ``k``.

All streams advance in lockstep, in the manner of FINEX's one structure
for a whole parameter sweep: every seeding draws one pick per step as
one stacked array over a shared row-distance slot buffer, and the
``(k, restart)`` Lloyd solves iterate together in one pool, each
retiring when it converges.  The ``k_sweep`` span records the number of Lloyd
``solves`` and ``iterations``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

# ``lloyd`` is unused here, but kept: profilers wrap this module's name.
from repro.clustering.kmeans import (  # noqa: F401
    KMeansResult,
    check_rows,
    fit_streams,
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
    init=init).fit(data) for k in k_values}`` — bit for bit — with every
    ``(k, restart)`` solve advanced in lockstep.
    """
    if n_init < 1:
        raise ValueError("n_init must be at least 1")
    if init not in ("k-means++", "random"):
        raise ValueError(f"unknown init strategy {init!r}")
    data = check_rows(data)
    k_values = list(dict.fromkeys(k_values))
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
    ) as meta:
        streams = [(k, np.random.default_rng(seed)) for k in k_values]
        fits, iterations = fit_streams(
            data, streams, n_init, init, max_iterations, tolerance
        )
        meta["solves"] = len(streams) * n_init
        meta["iterations"] = iterations
        return dict(zip(k_values, fits))
