"""TD-OC — the object-partitioning counterpart of TD-AC.

The paper's related work ([13], Yang, Bai & Liu 2019) partitions
*objects* rather than attributes, and Section 6 lists a comparison as
future work.  This module supplies that comparator by transposing TD-AC:

1. run the base algorithm once for a reference truth;
2. build **object truth vectors** — one binary vector per object, with a
   rank per (attribute, source) pair: did the source get this object's
   attribute right?
3. cluster the object vectors with the silhouette-swept k-means;
4. run the base algorithm per object cluster and merge.

Object partitioning pays off when sources specialise by *entity* (a
sports site is good on sports facts of every kind); attribute
partitioning pays off when they specialise by *field*.  The ablation
bench A-7 puts both on each regime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.algorithms.base import TruthDiscoveryAlgorithm, TruthDiscoveryResult
from repro.clustering.distance import pairwise_hamming
from repro.clustering.kselect import score_silhouette_sweep
from repro.clustering.sweep import sweep_kmeans
from repro.core.truth_vectors import build_truth_vectors
from repro.data.dataset import Dataset
from repro.data.types import Fact, ObjectId, SourceId, Value


@dataclass(frozen=True)
class ObjectTruthVectors:
    """Binary truth vectors with objects as rows."""

    matrix: np.ndarray
    mask: np.ndarray
    objects: tuple[ObjectId, ...]


@dataclass(frozen=True)
class ObjectTDACResult:
    """Result of one TD-OC run: merged result plus the object clusters."""

    result: TruthDiscoveryResult
    groups: tuple[tuple[ObjectId, ...], ...]
    silhouette_by_k: Mapping[int, float]

    @property
    def predictions(self) -> Mapping[Fact, Value]:
        """Merged fact → value predictions."""
        return self.result.predictions


def build_object_truth_vectors(
    dataset: Dataset,
    reference: TruthDiscoveryResult | TruthDiscoveryAlgorithm,
) -> ObjectTruthVectors:
    """Object-major variant of the paper's Eq. 1.

    The same cells as :func:`build_truth_vectors`, regrouped: the
    attribute matrix's ``(attribute, object, source)`` cells become
    ``(object, attribute, source)`` ones, so object ``o``'s row has one
    rank per (attribute, source) pair, attribute-major.
    """
    vectors = build_truth_vectors(dataset, reference)
    shape = (
        len(dataset.attributes),
        len(dataset.objects),
        len(dataset.sources),
    )

    def regroup(cells: np.ndarray) -> np.ndarray:
        return cells.reshape(shape).transpose(1, 0, 2).reshape(
            shape[1], shape[0] * shape[2]
        )

    return ObjectTruthVectors(
        matrix=regroup(vectors.matrix),
        mask=regroup(vectors.mask),
        objects=dataset.objects,
    )


class ObjectTDAC:
    """Truth discovery with *object* clustering (the [13] comparator).

    Parameters mirror :class:`~repro.core.tdac.TDAC` where applicable.
    """

    def __init__(
        self,
        base: TruthDiscoveryAlgorithm,
        k_min: int = 2,
        k_max: int | None = None,
        n_init: int = 10,
        seed: int = 0,
    ) -> None:
        if k_min < 2:
            raise ValueError("k_min must be at least 2")
        self.base = base
        self.k_min = k_min
        self.k_max = k_max
        self.n_init = n_init
        self.seed = seed

    @property
    def name(self) -> str:
        return f"TD-OC (F={self.base.name})"

    def run(self, dataset: Dataset) -> ObjectTDACResult:
        """Run the object-partitioned discovery."""
        start = time.perf_counter()
        reference = self.base.discover(dataset)
        vectors = build_object_truth_vectors(dataset, reference)
        groups, silhouettes = self._select_groups(vectors)
        predictions: dict[Fact, Value] = {}
        confidence: dict[Fact, float] = {}
        trust_sums: dict[SourceId, float] = {s: 0.0 for s in dataset.sources}
        for group in groups:
            block = _restrict_objects(dataset, set(group))
            result = self.base.discover(block)
            predictions.update(result.predictions)
            confidence.update(result.confidence)
            for source, trust in result.source_trust.items():
                trust_sums[source] += trust * len(group)
        n_objects = max(len(dataset.objects), 1)
        merged = TruthDiscoveryResult(
            algorithm=self.name,
            predictions=predictions,
            confidence=confidence,
            source_trust={
                s: total / n_objects for s, total in trust_sums.items()
            },
            iterations=1,
            elapsed_seconds=time.perf_counter() - start,
        )
        return ObjectTDACResult(
            result=merged, groups=groups, silhouette_by_k=silhouettes
        )

    def _select_groups(
        self, vectors: ObjectTruthVectors
    ) -> tuple[tuple[tuple[ObjectId, ...], ...], dict[int, float]]:
        n_objects = len(vectors.objects)
        upper = n_objects - 1 if self.k_max is None else min(
            self.k_max, n_objects - 1
        )
        if upper < self.k_min:
            return (tuple(vectors.objects),), {}
        data = vectors.matrix.astype(float)
        distances = pairwise_hamming(data)
        fits = sweep_kmeans(
            data, range(self.k_min, upper + 1), n_init=self.n_init,
            seed=self.seed,
        )
        silhouettes = score_silhouette_sweep(distances, fits, average="macro")
        best_labels: np.ndarray | None = None
        best_score = -np.inf
        for k in sorted(fits):
            labels = fits[k].labels
            # Degenerate fits score -1 and never win; ties keep the first k.
            if len(np.unique(labels)) >= 2 and silhouettes[k] > best_score:
                best_score = silhouettes[k]
                best_labels = labels
        if best_labels is None:
            return (tuple(vectors.objects),), silhouettes
        groups: dict[int, list[ObjectId]] = {}
        for obj, label in zip(vectors.objects, best_labels):
            groups.setdefault(int(label), []).append(obj)
        ordered = tuple(
            tuple(members) for _, members in sorted(groups.items())
        )
        return ordered, silhouettes


def _restrict_objects(dataset: Dataset, keep: set[ObjectId]) -> Dataset:
    """Project the dataset onto a subset of objects."""
    claims = {
        (c.source, c.object, c.attribute): c.value
        for c in dataset.iter_claims()
        if c.object in keep
    }
    truth = {
        (o, a): v for (o, a), v in dataset.truth.items() if o in keep
    }
    return Dataset(
        dataset.sources,
        tuple(o for o in dataset.objects if o in keep),
        dataset.attributes,
        claims,
        truth,
        name=f"{dataset.name}|{len(keep)}objects",
    )
