"""A-2 — Ablation: clustering family and distance for TD-AC.

Swaps TD-AC's clusterer (k-means vs agglomerative, single / complete /
average linkage) and its distance (plain vs missing-data-aware masked
Hamming, the paper's research perspective (i)) and compares accuracy on
a low-coverage dataset where the masked variant should matter most.
"""

from conftest import run_once

from repro.algorithms import Accu
from repro.clustering import (
    Agglomerative,
    Spectral,
    pairwise_hamming,
    pairwise_masked_hamming,
    silhouette_score,
)
from repro.core import TDAC, TDACConfig, Partition, build_truth_vectors, run_blocks
from repro.data import Fact
from repro.datasets import load
from repro.evaluation import format_table
from repro.metrics import evaluate_predictions


def _swept_tdac(dataset, vectors, distances, make_clusterer):
    """TD-AC step 3 with an alternative clusterer, silhouette-swept."""
    best = None
    n = vectors.n_attributes
    for k in range(2, n):
        fit = make_clusterer(k).fit_distances(distances)
        labels = fit.labels
        import numpy as np

        if len(np.unique(labels)) < 2:
            continue
        score = silhouette_score(distances, labels, average="macro")
        if best is None or score > best[0]:
            best = (score, labels)
    partition = Partition.from_labels(vectors.attributes, best[1])
    results = run_blocks(Accu(), dataset, partition)
    merged = {}
    for result in results:
        merged.update(result.predictions)
    return partition, merged


def test_clustering_variants(record_artifact, benchmark):
    dataset = load("Flights", seed=0)
    vectors = build_truth_vectors(dataset, Accu())
    plain = pairwise_hamming(vectors.matrix.astype(float))
    masked = pairwise_masked_hamming(
        vectors.matrix.astype(float), vectors.mask
    )

    def sweep():
        rows = []
        for label, tdac in (
            ("k-means + hamming", TDAC(Accu(), config=TDACConfig(seed=0))),
            (
                "k-means + masked",
                TDAC(Accu(), config=TDACConfig(distance="masked", seed=0)),
            ),
        ):
            outcome = tdac.run(dataset)
            report = evaluate_predictions(dataset, outcome.predictions)
            rows.append([label, str(outcome.partition), report.accuracy])
        for linkage in ("single", "complete", "average"):
            for dist_label, distances in (("hamming", plain), ("masked", masked)):
                partition, predictions = _swept_tdac(
                    dataset,
                    vectors,
                    distances,
                    lambda k, linkage=linkage: Agglomerative(k, linkage),
                )
                report = evaluate_predictions(dataset, predictions)
                rows.append(
                    [f"agglo/{linkage} + {dist_label}", str(partition), report.accuracy]
                )
        for dist_label, distances in (("hamming", plain), ("masked", masked)):
            partition, predictions = _swept_tdac(
                dataset,
                vectors,
                distances,
                lambda k: Spectral(k, seed=0),
            )
            report = evaluate_predictions(dataset, predictions)
            rows.append(
                [f"spectral + {dist_label}", str(partition), report.accuracy]
            )
        return rows

    rows = run_once(benchmark, sweep)
    table = format_table(
        ["Variant", "Partition", "Accuracy"],
        rows,
        title="Ablation A-2 (Flights): clustering family and distance",
    )
    record_artifact("ablation_clustering", table)

    accuracies = [row[2] for row in rows]
    # The paper's choice (k-means + plain Hamming) should be competitive.
    assert rows[0][2] >= max(accuracies) - 0.05
