"""Incremental TD-AC: absorb new claims with *exact* delta refits.

A deployed fusion pipeline sees claims arrive continuously.  Re-running
all of Algorithm 1 per batch wastes the structure TD-AC just found, but
a shortcut is only admissible when its output is bit-identical to the
offline run — the serving layer publishes every refresh as a snapshot
and promises ``exact=True`` refits.

:class:`IncrementalTDAC` therefore re-derives each stage of Algorithm 1
at delta cost while keeping a proof that the published result equals
``TDAC.run`` over the accumulated dataset:

* the dataset grows through :meth:`Dataset.extended` (append-only,
  fingerprint-identical to a full rebuild) and the claim-index engine
  delta-compiles via :meth:`ClaimIndexEngine.extended` (the untouched
  facts sliced from the previous index, the touched ones run through the
  cold compile's kernel; byte-identical to a cold compile);
* the reference pass is recomputed over the extended corpus (global
  source trust couples every claim; there is no sound per-fact patch),
  but it runs on the delta-compiled index, not a recompile;
* the Eq. 1 truth-vector matrix is copied forward and patched by a
  :class:`~repro.core.truth_vectors.TruthVectorStore`, which rewrites
  the changed facts' cells with the helper ``build_truth_vectors``
  uses and returns a new matrix with exact change flags;
* steps 3–4 (partition selection, block runs, merge) are
  ``TDAC._finish`` itself, the stage :meth:`TDAC.run` ends with.  The
  delta path only tells it what provably cannot change: the previous
  certified partition and silhouettes when nothing selection-relevant
  changed (appended all-zero columns leave every pairwise attribute
  distance, k-means labelling and silhouette untouched), and every
  previous block result whose membership is unchanged, whose attributes
  no batch claim touched, and whose source universe did not grow
  (per-block trust vectors span all sources).

:meth:`IncrementalTDAC.fit` runs Algorithm 1 once and seeds this state
from its own outcome; every :meth:`IncrementalTDAC.update` after it
takes the one delta path, whatever the batch size: it is exact at any
size, so there is nothing to tune.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.algorithms.base import TruthDiscoveryAlgorithm
# Unused here, but kept: profilers wrap these three names on this module.
from repro.clustering.kmeans import lloyd  # noqa: F401
from repro.clustering.kselect import score_silhouette_sweep  # noqa: F401
from repro.core.config import TDACConfig
from repro.core.parallel import run_blocks  # noqa: F401
from repro.core.partition import Partition
from repro.core.tdac import TDAC, TDACResult
from repro.core.truth_vectors import TruthVectorStore
from repro.data.claim_engine import ClaimIndexEngine
from repro.data.dataset import Dataset
from repro.data.types import Claim


class IncrementalTDAC:
    """Streaming wrapper around :class:`~repro.core.tdac.TDAC`.

    Parameters
    ----------
    base:
        Base algorithm for both the initial fit and block refreshes.
    config:
        :class:`~repro.core.config.TDACConfig` for the underlying
        :class:`TDAC` (``None`` means all defaults).
    """

    def __init__(
        self,
        base: TruthDiscoveryAlgorithm,
        config: TDACConfig | None = None,
    ) -> None:
        self.base = base
        self._tdac = TDAC(base, config=config)
        self._dataset: Dataset | None = None
        self._last_outcome: TDACResult | None = None
        self._vector_store: TruthVectorStore | None = None
        self._n_full_fits = 0
        self._n_block_refreshes = 0
        self._n_blocks_reused = 0
        self._n_delta_updates = 0
        self._n_selection_reuses = 0

    # ------------------------------------------------------------------

    @property
    def config(self) -> TDACConfig:
        """The config of the underlying :class:`TDAC`."""
        return self._tdac.config

    @property
    def dataset(self) -> Dataset:
        """The current accumulated dataset."""
        self._require_fitted()
        return self._dataset

    @property
    def partition(self) -> Partition:
        """The partition currently in force."""
        self._require_fitted()
        return self._last_outcome.partition

    @property
    def last_outcome(self) -> TDACResult:
        """The full provenance-carrying result of the latest refit."""
        self._require_fitted()
        return self._last_outcome

    @property
    def stats(self) -> dict[str, int]:
        """Bookkeeping: fits, refreshes and delta-path reuse counters."""
        store = self._vector_store
        return {
            "full_fits": self._n_full_fits,
            "block_refreshes": self._n_block_refreshes,
            "delta_updates": self._n_delta_updates,
            "blocks_reused": self._n_blocks_reused,
            "selection_reuses": self._n_selection_reuses,
            "vector_rebuilds": store.rebuilds if store is not None else 0,
            "vector_patches": store.patches if store is not None else 0,
        }

    # ------------------------------------------------------------------

    def fit(self, dataset: Dataset) -> TDACResult:
        """Full TD-AC fit of the initial corpus; seeds the delta state.

        The fit's own outcome is the state every :meth:`update` starts
        from: the truth-vector store advances from its Eq. 1 matrix,
        and its partition, silhouettes and block results are
        what the first update may reuse.  Reuse after a fit is exact
        for the same reason as reuse after an update — the selection
        inputs were certified on that very matrix.
        """
        outcome = self._tdac.run(dataset)
        self._dataset = dataset
        self._last_outcome = outcome
        self._vector_store = TruthVectorStore(
            dataset, outcome.reference, outcome.truth_vectors
        )
        self._n_full_fits += 1
        return outcome

    def update(self, claims: Iterable[Claim]) -> TDACResult:
        """Absorb a batch of claims; recompute only what could change.

        Returns the same provenance-carrying :class:`TDACResult` a full
        :meth:`TDAC.run` over the accumulated dataset would return —
        bit-identical predictions, source trust, partition and
        silhouettes (``tests/test_incremental_exact.py`` pins this at
        every watermark).  A conflicting claim raises
        :class:`~repro.data.types.DataError` and leaves every piece of
        state untouched.
        """
        self._require_fitted()
        started = time.perf_counter()
        batch = list(claims)
        if not batch:
            return self._last_outcome
        # Validates the batch (conflicts raise before any state change)
        # and returns ``self._dataset`` itself when every claim is a
        # duplicate — nothing to recompute then.
        new_dataset = self._dataset.extended(batch)
        if new_dataset is self._dataset:
            return self._last_outcome
        return self._delta_update(
            new_dataset, self._fresh_claims(batch, new_dataset), started
        )

    # ------------------------------------------------------------------
    # The exact delta path
    # ------------------------------------------------------------------

    def _delta_update(
        self, new_dataset: Dataset, fresh: list[Claim], started: float
    ) -> TDACResult:
        tdac = self._tdac
        previous = self._last_outcome
        # The extended dataset's engine: a delta compile of the current
        # dataset's (``fresh`` is exactly their difference), or none when
        # the base algorithm does not consume index views.
        engine = (
            ClaimIndexEngine.shared(self._dataset).extended(new_dataset, fresh)
            if self.base.supports_index
            else None
        )

        # Stage 1 — reference pass.  Source trust is globally coupled
        # (and the discovery tie-breaker is seeded by the view's slot
        # count), so the reference is recomputed over the extended
        # corpus; the delta-compiled index keeps that pass cheap.
        reference = tdac.reference_pass(new_dataset, engine)

        # Stage 2 — Eq. 1 matrix, copied forward and patched.
        delta = self._vector_store.advance(
            new_dataset, engine, reference, fresh
        )

        # Stages 3–4 are TDAC's own, given what provably cannot change.
        # The previous selection is reused only when every selection
        # input is unchanged; a block result only when its membership is
        # unchanged, no batch claim touches its attributes and the
        # source universe did not grow.
        selection = None
        if not delta.selection_dirty and not (
            tdac.config.distance == "masked" and delta.mask_changed
        ):
            selection = (previous.partition, dict(previous.silhouette_by_k))
            self._n_selection_reuses += 1
        reusable = {}
        if len(new_dataset.sources) == len(self._dataset.sources):
            touched = {claim.attribute for claim in fresh}
            reusable = {
                block: result
                for block, result in zip(
                    previous.partition.blocks, previous.block_results
                )
                if touched.isdisjoint(block)
            }
        outcome = tdac._finish(
            new_dataset, engine, reference, delta.vectors, started,
            selection=selection, reusable=reusable,
        )
        blocks = outcome.partition.blocks
        n_reused = sum(block in reusable for block in blocks)
        self._n_blocks_reused += n_reused
        self._n_block_refreshes += len(blocks) - n_reused
        self._dataset = new_dataset
        self._last_outcome = outcome
        self._n_delta_updates += 1
        return outcome

    def _fresh_claims(
        self, batch: list[Claim], new_dataset: Dataset
    ) -> list[Claim]:
        """The batch minus duplicates (within itself and vs the corpus),
        each with the value ``new_dataset`` stores (NaN canonicalised)."""
        seen: set[tuple] = set()
        fresh: list[Claim] = []
        for claim in batch:
            key = (claim.source, claim.object, claim.attribute)
            if key in seen:
                continue
            seen.add(key)
            if self._dataset.value(*key) is None:
                fresh.append(Claim(*key, new_dataset.value(*key)))
        return fresh

    # ------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if self._dataset is None:
            raise RuntimeError("call fit() before update()")


def extend_dataset(dataset: Dataset, claims: Iterable[Claim]) -> Dataset:
    """Return ``dataset`` plus ``claims`` (one-truth conflicts raise).

    The single claim-accumulation routine shared by the incremental
    engine and the serving layer: identifier declaration order is
    preserved and new identifiers append in claim order, so replaying
    the same claim sequence always rebuilds a fingerprint-identical
    dataset (the property the serving bit-identity guarantee rests on).
    Delegates to :meth:`Dataset.extended`, which validates only the new
    claims — O(batch), not O(corpus).
    """
    return dataset.extended(list(claims))
