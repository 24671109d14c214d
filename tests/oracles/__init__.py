"""Loop oracles for the vectorized kernels and the shared claim engine.

The production code has one path per stage: the base algorithms run
vectorized kernels over views of one shared
:class:`~repro.data.claim_engine.ClaimIndexEngine`.  The per-slot and
per-fact loops those kernels replaced live here, next to the tests that
compare against them, together with :func:`reference_kernels`, which
swaps them back in from the outside:

* ``repro.algorithms.accu.discounted_votes`` becomes
  :func:`discounted_votes_loop`;
* ``SlotSimilarity.weighted_support`` becomes
  :func:`weighted_support_loop`;
* ``DatasetIndex.__init__`` becomes
  :func:`tests.oracles.index.dataset_index_loop`, the per-fact compile;
* every algorithm reports ``supports_index = False``, so the reference
  pass compiles its own index and each block takes the per-block
  ``restrict_attributes`` recompile instead of an engine slice.

The context yields the set of oracle names the enclosed code reached,
so a test can check that its comparison is not vacuous.  The patches are
process-global; the context is for tests and benchmarks, not for
concurrent use.

:mod:`tests.oracles.kmeans` holds the per-draw k-means++ seeding loop
and the per-row label compaction that the clustering code replaced.
:mod:`tests.oracles.object_tdac` holds TD-OC's per-claim object vector
loop and its per-``k`` group selection.
:mod:`tests.oracles.fingerprint` holds the per-claim hashing loop that
defines ``Dataset.fingerprint``.
:mod:`tests.oracles.index` holds the per-fact ``DatasetIndex`` compile
loop, and :mod:`tests.oracles.truth_vectors` the per-claim Eq. 1 loop.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

import numpy as np

from repro.algorithms import accu
from repro.algorithms.base import TruthDiscoveryAlgorithm
from repro.algorithms.similarity import SlotSimilarity
from repro.data.index import DatasetIndex
from tests.oracles.index import dataset_index_loop


def discounted_votes_loop(
    index: DatasetIndex,
    dependence: np.ndarray,
    accuracy: np.ndarray,
    copy_rate: float,
    vote_weight: np.ndarray,
) -> np.ndarray:
    """Per-slot loop of :func:`repro.algorithms.accu.discounted_votes`."""
    order = np.argsort(-accuracy, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))

    totals = np.zeros(index.n_slots, dtype=float)
    slot_sorted = np.argsort(index.claim_slot, kind="stable")
    slots = index.claim_slot[slot_sorted]
    sources = index.claim_source[slot_sorted]
    boundaries = np.flatnonzero(np.diff(slots)) + 1
    groups = np.split(sources, boundaries)
    slot_ids = slots[np.concatenate(([0], boundaries))] if len(slots) else []
    for slot_id, providers in zip(slot_ids, groups):
        providers = providers[np.argsort(rank[providers], kind="stable")]
        if len(providers) == 1:
            totals[slot_id] = vote_weight[providers[0]]
            continue
        sub = dependence[np.ix_(providers, providers)]
        independence = np.ones(len(providers))
        # Lower triangle: provider i versus already-counted providers j < i.
        factors = 1.0 - copy_rate * sub
        for i in range(1, len(providers)):
            independence[i] = np.prod(factors[i, :i])
        totals[slot_id] = float(np.dot(independence, vote_weight[providers]))
    return totals


def weighted_support_loop(
    similarity: SlotSimilarity, slot_score: np.ndarray, weight: float
) -> np.ndarray:
    """Every-fact loop of :meth:`SlotSimilarity.weighted_support`."""
    index = similarity._index
    starts = index.fact_slot_start
    adjusted = slot_score.astype(float).copy()
    for fact_id in range(index.n_facts):
        start, stop = starts[fact_id], starts[fact_id + 1]
        if stop - start < 2:
            continue
        block = slot_score[start:stop]
        adjusted[start:stop] = (
            block + weight * similarity.matrix(fact_id) @ block
        )
    return adjusted


@contextmanager
def reference_kernels() -> Iterator[set[str]]:
    """Run the enclosed code on the loop oracles and per-block recompiles."""
    reached: set[str] = set()

    def votes(*args):
        reached.add("discounted_votes")
        return discounted_votes_loop(*args)

    def support(*args):
        reached.add("weighted_support")
        return weighted_support_loop(*args)

    def compile_loop(index, dataset):
        reached.add("dataset_index")
        dataset_index_loop(index, dataset)

    with (
        mock.patch.object(accu, "discounted_votes", votes),
        mock.patch.object(SlotSimilarity, "weighted_support", support),
        mock.patch.object(DatasetIndex, "__init__", compile_loop),
        mock.patch.object(TruthDiscoveryAlgorithm, "supports_index", False),
    ):
        yield reached
