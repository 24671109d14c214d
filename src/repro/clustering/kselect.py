"""Strategies for choosing the number of clusters ``k``.

TD-AC sweeps ``k`` from 2 to ``n-1`` and keeps the clustering with the
best silhouette (Algorithm 1, lines 6–18).  Two classic alternatives are
provided for the ablation benches: the elbow criterion (largest relative
inertia drop) and Tibshirani's gap statistic against a uniform reference.

Every strategy returns a :class:`KSelectionResult` with the chosen ``k``,
its labelling, and the full diagnostic curve so benches can plot it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.clustering.distance import pairwise_hamming
from repro.clustering.kmeans import KMeans, KMeansResult
from repro.clustering.silhouette import (
    cluster_distance_sums,
    silhouette_score,
    total_distance_row_sums,
)
from repro.clustering.sweep import sweep_kmeans
from repro.observability import current_tracer


@dataclass(frozen=True)
class KSelectionResult:
    """Chosen ``k``, its labels, and the per-k diagnostic scores."""

    k: int
    labels: np.ndarray
    scores: Mapping[int, float]
    strategy: str


def _valid_range(n_rows: int, k_min: int, k_max: int | None) -> range:
    upper = n_rows - 1 if k_max is None else min(k_max, n_rows - 1)
    if upper < k_min:
        raise ValueError(
            f"no valid k in [{k_min}, {upper}] for {n_rows} rows"
        )
    return range(k_min, upper + 1)


def _distances_are_integral(distances: np.ndarray) -> bool:
    """Whether every pairwise distance is an exact integer (e.g. Hamming).

    Integer-valued distance matrices admit the single-pass cluster-sum
    aggregation of :func:`cluster_distance_sums` with no floating-point
    drift; fractional matrices (e.g. masked Hamming) keep the one-hot
    matrix product so scores stay bit-identical to the classic path.

    Non-finite entries (NaN / inf) disqualify the fast path *loudly*:
    they indicate an upstream distance-kernel bug (the kernels define
    the zero-overlap distance explicitly, so a well-formed matrix is
    always finite), and letting them flow into silhouette scoring
    silently poisons every score downstream.
    """
    if not np.isfinite(distances).all():
        raise ValueError(
            "pairwise distance matrix contains non-finite entries"
        )
    return bool(np.equal(np.floor(distances), distances).all())


def score_silhouette_sweep(
    distances: np.ndarray,
    fits: Mapping[int, KMeansResult],
    average: str = "macro",
) -> dict[int, float]:
    """Silhouette of every swept clustering over one distance matrix.

    Degenerate fits (fewer than 2 distinct labels) score -1.  The
    label-independent distance row sums are computed once and reused by
    every candidate ``k`` when the distances are integral.
    """
    with current_tracer().span("silhouette_scoring", n_candidates=len(fits)):
        row_sums = (
            total_distance_row_sums(distances)
            if _distances_are_integral(distances)
            else None
        )
        scores: dict[int, float] = {}
        for k in sorted(fits):
            labels = fits[k].labels
            if len(np.unique(labels)) < 2:
                scores[k] = -1.0
                continue
            cluster_sums = (
                cluster_distance_sums(distances, labels, row_sums=row_sums)
                if row_sums is not None
                else None
            )
            scores[k] = silhouette_score(
                distances, labels, average=average, cluster_sums=cluster_sums
            )
        return scores


def select_k_silhouette(
    data: np.ndarray,
    k_min: int = 2,
    k_max: int | None = None,
    seed: int = 0,
    n_init: int = 10,
    average: str = "macro",
    distances: np.ndarray | None = None,
) -> KSelectionResult:
    """The paper's sweep: best silhouette over ``k in [2, n-1]``.

    ``distances`` may supply a precomputed pairwise matrix (e.g. the
    masked Hamming variant); otherwise plain Hamming on ``data`` is used,
    matching Eq. 2.

    When every swept fit collapses to fewer than 2 distinct labels
    (every score is the degenerate -1), the sweep carries no signal and
    the result falls back to the trivial one-cluster labelling — the
    same graceful degradation :meth:`repro.core.tdac.TDAC.select_partition`
    applies, so the two selection paths agree.
    """
    data = np.asarray(data, dtype=float)
    k_range = _valid_range(len(data), k_min, k_max)
    if distances is None:
        distances = pairwise_hamming(data)
    fits = sweep_kmeans(data, k_range, n_init=n_init, seed=seed)
    scores = score_silhouette_sweep(distances, fits, average=average)
    candidates = [
        k for k in sorted(fits) if len(np.unique(fits[k].labels)) >= 2
    ]
    if not candidates:
        return KSelectionResult(
            k=1,
            labels=np.zeros(len(data), dtype=np.int64),
            scores=scores,
            strategy="silhouette",
        )
    best_k = max(candidates, key=lambda k: (scores[k], -k))
    return KSelectionResult(
        k=best_k, labels=fits[best_k].labels, scores=scores, strategy="silhouette"
    )


def select_k_elbow(
    data: np.ndarray,
    k_min: int = 2,
    k_max: int | None = None,
    seed: int = 0,
    n_init: int = 10,
) -> KSelectionResult:
    """Elbow criterion: k with the largest curvature of the inertia curve.

    With three or more candidates the sharpest bend (largest second
    difference) wins.  With exactly two candidates there is no interior
    point to bend at, so the single inertia drop decides: the larger
    ``k`` wins only when moving to it removes at least half the
    remaining inertia — the extra cluster has to pay for itself —
    otherwise the smaller ``k`` is kept.  A single candidate is
    returned as-is.
    """
    data = np.asarray(data, dtype=float)
    k_range = _valid_range(len(data), k_min, k_max)
    fits = sweep_kmeans(data, k_range, n_init=n_init, seed=seed)
    inertias = {k: fits[k].inertia for k in k_range}
    ks = sorted(inertias)
    if len(ks) == 1:
        best_k = ks[0]
    elif len(ks) == 2:
        first, second = inertias[ks[0]], inertias[ks[1]]
        drop = first - second
        best_k = ks[1] if drop >= 0.5 * max(first, 1e-12) else ks[0]
    else:
        # Second difference of the inertia curve; the sharpest bend wins.
        curvatures = {
            ks[i]: inertias[ks[i - 1]] - 2 * inertias[ks[i]] + inertias[ks[i + 1]]
            for i in range(1, len(ks) - 1)
        }
        best_k = max(curvatures, key=lambda k: (curvatures[k], -k))
    return KSelectionResult(
        k=best_k, labels=fits[best_k].labels, scores=inertias, strategy="elbow"
    )


def _fit_reference(fake: np.ndarray, k: int, seed: int) -> float:
    """Log-inertia of a 1-restart fit on one uniform reference draw."""
    ref = KMeans(n_clusters=k, n_init=1, seed=seed).fit(fake)
    return float(np.log(max(ref.inertia, 1e-12)))


def select_k_gap(
    data: np.ndarray,
    k_min: int = 2,
    k_max: int | None = None,
    seed: int = 0,
    n_init: int = 10,
    n_references: int = 10,
) -> KSelectionResult:
    """Tibshirani's gap statistic with a uniform-box reference.

    Picks the smallest ``k`` with ``gap(k) >= gap(k+1) - s(k+1)``; falls
    back to the max-gap ``k`` when the inequality never holds.  The
    reference datasets are drawn from one generator in a fixed order.
    """
    data = np.asarray(data, dtype=float)
    k_range = _valid_range(len(data), k_min, k_max)
    rng = np.random.default_rng(seed)
    lows, highs = data.min(axis=0), data.max(axis=0)
    fits = sweep_kmeans(data, k_range, n_init=n_init, seed=seed)
    gaps: dict[int, float] = {}
    errors: dict[int, float] = {}
    for k in k_range:
        observed = np.log(max(fits[k].inertia, 1e-12))
        reference_logs = np.asarray(
            [
                _fit_reference(
                    rng.uniform(lows, highs, size=data.shape), k, seed
                )
                for _ in range(n_references)
            ]
        )
        gaps[k] = float(reference_logs.mean() - observed)
        errors[k] = float(
            reference_logs.std(ddof=0) * np.sqrt(1.0 + 1.0 / n_references)
        )
    ks = sorted(gaps)
    best_k = None
    for i, k in enumerate(ks[:-1]):
        nxt = ks[i + 1]
        if gaps[k] >= gaps[nxt] - errors[nxt]:
            best_k = k
            break
    if best_k is None:
        best_k = max(gaps, key=lambda k: (gaps[k], -k))
    return KSelectionResult(
        k=best_k, labels=fits[best_k].labels, scores=gaps, strategy="gap"
    )


K_SELECTORS = {
    "silhouette": select_k_silhouette,
    "elbow": select_k_elbow,
    "gap": select_k_gap,
}
