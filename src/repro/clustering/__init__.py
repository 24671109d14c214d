"""Clustering substrate: distances, k-means, silhouette, k selection.

Everything here is implemented from scratch (scikit-learn is not a
dependency): the Hamming / Euclidean / masked distance metrics of the
paper's Eq. 2, Lloyd's k-means with k-means++ seeding (Eq. 3), the
silhouette index (Eqs. 5–7), hierarchical clustering for ablations, and
three k-selection strategies.
"""

from repro.clustering.agglomerative import Agglomerative, AgglomerativeResult
from repro.clustering.distance import (
    PAIRWISE_METRICS,
    euclidean,
    hamming,
    masked_hamming,
    pairwise,
    pairwise_euclidean,
    pairwise_hamming,
    pairwise_masked_hamming,
)
from repro.clustering.kmeans import (
    KMeans,
    KMeansResult,
    inertia_of,
    initial_centroid_sequence,
    lloyd,
)
from repro.clustering.kselect import (
    K_SELECTORS,
    KSelectionResult,
    score_silhouette_sweep,
    select_k_elbow,
    select_k_gap,
    select_k_silhouette,
)
from repro.clustering.silhouette import (
    cluster_distance_sums,
    silhouette_samples,
    silhouette_score,
    total_distance_row_sums,
)
from repro.clustering.spectral import Spectral, SpectralResult
from repro.clustering.sweep import sweep_kmeans

__all__ = [
    "Agglomerative",
    "AgglomerativeResult",
    "KMeans",
    "KMeansResult",
    "KSelectionResult",
    "K_SELECTORS",
    "PAIRWISE_METRICS",
    "cluster_distance_sums",
    "euclidean",
    "hamming",
    "inertia_of",
    "initial_centroid_sequence",
    "lloyd",
    "masked_hamming",
    "pairwise",
    "pairwise_euclidean",
    "pairwise_hamming",
    "pairwise_masked_hamming",
    "score_silhouette_sweep",
    "select_k_elbow",
    "select_k_gap",
    "select_k_silhouette",
    "silhouette_samples",
    "silhouette_score",
    "Spectral",
    "SpectralResult",
    "sweep_kmeans",
    "total_distance_row_sums",
]
