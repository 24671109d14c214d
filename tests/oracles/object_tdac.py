"""Loop oracles for TD-OC, the object-partitioning comparator.

:mod:`repro.core.object_tdac` regroups the cells of
:func:`~repro.core.truth_vectors.build_truth_vectors` into object rows
and selects its groups with the shared k-sweep engine
(:func:`~repro.clustering.sweep.sweep_kmeans` +
:func:`~repro.clustering.kselect.score_silhouette_sweep`).  The code it
replaced lives here, so tests can pin TD-OC to it bit for bit:

* :func:`object_truth_vectors_loop` — one scalar write per claim;
* :func:`select_groups_loop` — one ``KMeans`` fit and one
  ``silhouette_score`` per candidate ``k``.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.distance import pairwise_hamming
from repro.clustering.kmeans import KMeans
from repro.clustering.silhouette import silhouette_score
from repro.core.object_tdac import ObjectTDAC, ObjectTruthVectors
from repro.data.dataset import Dataset
from repro.data.types import Fact


def object_truth_vectors_loop(dataset: Dataset, reference) -> ObjectTruthVectors:
    """Per-claim loop of :func:`build_object_truth_vectors`."""
    attributes = dataset.attributes
    sources = dataset.sources
    rank_of = {
        (a, s): i
        for i, (a, s) in enumerate((a, s) for a in attributes for s in sources)
    }
    row_of = {o: i for i, o in enumerate(dataset.objects)}
    n_ranks = len(attributes) * len(sources)
    matrix = np.zeros((len(dataset.objects), n_ranks), dtype=np.int8)
    mask = np.zeros_like(matrix, dtype=bool)
    predictions = reference.predictions
    for claim in dataset.iter_claims():
        row = row_of[claim.object]
        column = rank_of[(claim.attribute, claim.source)]
        mask[row, column] = True
        truth = predictions.get(Fact(claim.object, claim.attribute))
        if truth is not None and claim.value == truth:
            matrix[row, column] = 1
    return ObjectTruthVectors(matrix=matrix, mask=mask, objects=dataset.objects)


def select_groups_loop(tdoc: ObjectTDAC, vectors: ObjectTruthVectors):
    """Per-``k`` loop of :meth:`ObjectTDAC._select_groups`."""
    n_objects = len(vectors.objects)
    upper = n_objects - 1 if tdoc.k_max is None else min(
        tdoc.k_max, n_objects - 1
    )
    if upper < tdoc.k_min:
        return (tuple(vectors.objects),), {}
    data = vectors.matrix.astype(float)
    distances = pairwise_hamming(data)
    best_labels = None
    best_score = -np.inf
    silhouettes: dict[int, float] = {}
    for k in range(tdoc.k_min, upper + 1):
        fit = KMeans(n_clusters=k, n_init=tdoc.n_init, seed=tdoc.seed).fit(data)
        if len(np.unique(fit.labels)) < 2:
            silhouettes[k] = -1.0
            continue
        score = silhouette_score(distances, fit.labels, average="macro")
        silhouettes[k] = score
        if score > best_score:
            best_score = score
            best_labels = fit.labels
    if best_labels is None:
        return (tuple(vectors.objects),), silhouettes
    groups: dict[int, list] = {}
    for obj, label in zip(vectors.objects, best_labels):
        groups.setdefault(int(label), []).append(obj)
    return (
        tuple(tuple(members) for _, members in sorted(groups.items())),
        silhouettes,
    )
