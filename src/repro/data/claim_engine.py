"""Shared claim-index engine: one incidence structure per dataset.

TD-AC compiles the same dataset into flat claim arrays repeatedly: once
for the reference pass, once per block of the winning partition, and
again for every serving-layer block refresh.  Worse, each per-block pass
first rebuilds a whole restricted :class:`~repro.data.dataset.Dataset`
(dict filtering, claim re-validation) only to immediately recompile it
into arrays.

:class:`ClaimIndexEngine` compiles the dataset **once** into a full
:class:`~repro.data.index.DatasetIndex` and derives every per-block view
by *slicing* the compiled arrays:

* facts are ordered object-major then attribute order, and attribute
  subsetting preserves relative attribute order, so the facts of a block
  are a subsequence of the full fact sequence;
* slots are numbered per fact in first-appearance (source) order — a
  property of the fact's claims alone — so a block's slots are the same
  subsequence of the full slot sequence;
* claims are fact-major and source-ordered within each fact, so a block's
  claims are the corresponding subsequence of the full claim arrays.

A sliced view is therefore **byte-identical** to compiling
``dataset.restrict_attributes(block)`` from scratch (including the
winner tie-breaker, which is seeded by the block's slot count), while
costing a few fancy-indexing passes instead of a dict rebuild plus a
compile.  ``tests/test_vectorized_engine.py`` pins this
equivalence.

The delta compile (:meth:`ClaimIndexEngine.extended`) slices out the
facts a batch leaves untouched with the same code, runs the touched
facts' claims through the cold compile's kernel and merges the parts.

:meth:`ClaimIndexEngine.shared` caches the engine on the dataset
itself, so the reference pass, the block runs, repeated partition sweeps
and the serving refit path all reuse one structure for as long as the
dataset object is alive — and the engine is freed with it.
"""

from __future__ import annotations

import threading
import weakref
from functools import cached_property
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.index import (
    _RANK_MASK,
    DatasetIndex,
    IndexParts,
    code_claims,
    compile_claims,
    rank_maps,
)
from repro.data.types import Claim, DataError

#: Instance attribute under which a dataset holds its own engine.  The
#: engine and its indexes refer back to the dataset weakly, so dropping
#: the dataset frees them by reference counting (a process-wide
#: registry would have to hold the engine strongly, and so would never
#: free either).
_ENGINE_ATTR = "_claim_engine"
_CREATE_LOCK = threading.Lock()

#: Per-engine cap on memoised block views.  Partition sweeps can probe
#: many candidate blocks; the cap bounds memory while keeping every block
#: of a selected partition (typically < 20) resident.
_BLOCK_CACHE_SIZE = 128


class ClaimIndexEngine:
    """Per-dataset factory of shared full and per-block claim indexes.

    An engine and the indexes it builds hold their dataset weakly: use
    them while the dataset is alive.
    """

    def __init__(self, dataset: Dataset) -> None:
        # Weak: the dataset owns its engine (``_ENGINE_ATTR``), so a
        # strong back-reference would make the pair a reference cycle,
        # freed only by a full collection instead of with the dataset.
        self._dataset = weakref.ref(dataset)
        self._lock = threading.Lock()
        self._blocks: dict[tuple, DatasetIndex] = {}

    # ------------------------------------------------------------------

    @classmethod
    def shared(cls, dataset: Dataset) -> "ClaimIndexEngine":
        """The engine ``dataset`` owns (created on first use).

        The engine is cached on the dataset instance, so a live dataset
        always gets the same engine — its compiled structure is shared
        across the reference pass, block runs and serving refreshes —
        and the engine is freed with the dataset once the caller drops
        it.
        """
        engine = getattr(dataset, _ENGINE_ATTR, None)
        if engine is None:
            with _CREATE_LOCK:
                engine = getattr(dataset, _ENGINE_ATTR, None)
                if engine is None:
                    engine = cls(dataset)
                    setattr(dataset, _ENGINE_ATTR, engine)
        return engine

    @property
    def dataset(self) -> Dataset:
        """The dataset this engine compiles."""
        return self._dataset()

    @cached_property
    def full_index(self) -> DatasetIndex:
        """The compiled index of the whole dataset."""
        index = DatasetIndex(self.dataset)
        index._dataset = self._dataset  # weak, as in ``_from_parts``
        return index

    @cached_property
    def _fact_attribute(self) -> np.ndarray:
        """Attribute rank (dataset attribute order) of every fact."""
        return self._fact_keys & _RANK_MASK

    # -- delta-compile support structures ------------------------------
    #
    # Computed lazily on a cold engine and carried forward by
    # :meth:`extended`, so a batch's Python work stays proportional to
    # the batch, not the corpus.

    @cached_property
    def _ranks(self) -> tuple[dict, dict, dict]:
        """Source, object and attribute rank maps (see ``rank_maps``)."""
        return rank_maps(self.dataset)

    @property
    def _fact_keys(self) -> np.ndarray:
        """Packed (object, attribute) rank key of every fact, ascending.

        The compile (cold or delta) computes them; see ``_KEY_SHIFT``.
        """
        return self.full_index._fact_keys

    @cached_property
    def _facts_obj(self) -> np.ndarray:
        """The fact tuple as an object ndarray (for slicing)."""
        full = self.full_index
        return np.fromiter(full.facts, dtype=object, count=full.n_facts)

    @cached_property
    def _slot_values_obj(self) -> np.ndarray:
        """The slot-value tuple as an object ndarray (for slicing)."""
        full = self.full_index
        return np.fromiter(full.slot_values, dtype=object, count=full.n_slots)

    # ------------------------------------------------------------------

    def extended(
        self, dataset: Dataset, fresh: Sequence[Claim]
    ) -> "ClaimIndexEngine":
        """Delta-compile an engine for ``dataset`` = this dataset + ``fresh``.

        ``dataset`` must be the append-only extension of this engine's
        dataset by exactly the (deduplicated) claims in ``fresh``.  The
        facts no fresh claim touches are sliced out of this engine's full
        index, the touched facts' claims go through the cold compile's
        kernel, and the two parts merge by fact key.  An old claim enters
        the kernel with its slot's value object, which gives the same
        slots: an added claim never makes an old non-opener its slot's
        opener, and a NaN slot keeps its one object.
        The result is byte-identical to ``DatasetIndex(dataset)`` at
        O(batch) Python work.  Unless ``dataset`` already owns an engine,
        the child becomes its engine.

        Raises :class:`ValueError` when ``dataset`` is not an append-only
        extension.
        """
        old_ds = self.dataset
        ids = (dataset.sources, dataset.objects, dataset.attributes)
        old_ids = (old_ds.sources, old_ds.objects, old_ds.attributes)
        if any(new[: len(old)] != old for new, old in zip(ids, old_ids)):
            raise ValueError(
                "dataset is not an append-only extension of this engine's"
            )
        if dataset.n_claims != old_ds.n_claims + len(fresh):
            raise ValueError(
                f"expected {old_ds.n_claims} + {len(fresh)} claims, "
                f"dataset holds {dataset.n_claims}"
            )
        full = self.full_index
        ranks = tuple(map(_appended, self._ranks, ids))
        fresh_src, fresh_key, fresh_values = code_claims(
            [(c.source, c.object, c.attribute) for c in fresh],
            [c.value for c in fresh],
            ranks,
        )
        untouched = ~np.isin(full._fact_keys, fresh_key)
        old = np.flatnonzero(~untouched[full.claim_fact])
        touched = compile_claims(
            dataset,
            np.concatenate([full.claim_source[old], fresh_src]),
            np.concatenate([full._fact_keys[full.claim_fact[old]], fresh_key]),
            self._slot_values_obj[full.claim_slot[old]].tolist()
            + fresh_values,
        )
        parts = _merge(self._slice(untouched, keys=True), touched)

        child = ClaimIndexEngine(dataset)
        child.full_index = DatasetIndex._from_parts(dataset, parts)
        child._ranks = ranks
        child._facts_obj = parts.facts
        child._slot_values_obj = parts.slot_values
        with _CREATE_LOCK:
            if getattr(dataset, _ENGINE_ATTR, None) is None:
                setattr(dataset, _ENGINE_ATTR, child)
        return child

    # ------------------------------------------------------------------

    def block_index(self, block: Iterable[Hashable]) -> DatasetIndex:
        """The sliced index of one attribute block (memoised).

        ``block`` is a collection of attribute ids; the view is identical
        to ``DatasetIndex(dataset.restrict_attributes(block))`` but built
        by slicing the full index's arrays.
        """
        key = tuple(block)
        with self._lock:
            cached = self._blocks.get(key)
        if cached is not None:
            return cached
        rank = self._ranks[2]
        unknown = [a for a in key if a not in rank]
        if unknown:
            raise DataError(
                f"unknown attributes in block: {sorted(map(str, unknown))}"
            )
        keep_attribute = np.zeros(len(rank), dtype=bool)
        keep_attribute[[rank[a] for a in key]] = True
        view = DatasetIndex._from_parts(
            self.dataset,
            self._slice(keep_attribute[self._fact_attribute], keys=False),
        )
        with self._lock:
            if len(self._blocks) >= _BLOCK_CACHE_SIZE:
                # Drop the oldest half; plain dicts preserve insertion
                # order, so this evicts the least recently inserted views.
                for stale in list(self._blocks)[: _BLOCK_CACHE_SIZE // 2]:
                    del self._blocks[stale]
            self._blocks[key] = view
        return view

    def _slice(self, fact_keep: np.ndarray, keys: bool) -> IndexParts:
        """The full index's facts ``fact_keep`` selects, in their order.

        The parts equal a compile of just those facts' claims (fact keys
        included when ``keys``; a block view leaves them out).
        """
        full = self.full_index
        slot_keep = fact_keep[full.slot_fact]
        claim_keep = fact_keep[full.claim_fact]
        # Old id -> new id maps (only valid where the element is kept).
        new_fact_id = np.cumsum(fact_keep, dtype=np.int64) - 1
        new_slot_id = np.cumsum(slot_keep, dtype=np.int64) - 1
        slot_fact = new_fact_id[full.slot_fact[slot_keep]]
        kept_true = full.true_slot[fact_keep]
        return IndexParts(
            facts=self._facts_obj[fact_keep],
            slot_values=self._slot_values_obj[slot_keep],
            slot_fact=slot_fact,
            fact_slot_start=np.searchsorted(
                slot_fact, np.arange(np.count_nonzero(fact_keep) + 1)
            ),
            claim_source=full.claim_source[claim_keep],
            claim_fact=new_fact_id[full.claim_fact[claim_keep]],
            claim_slot=new_slot_id[full.claim_slot[claim_keep]],
            true_slot=np.where(kept_true >= 0, new_slot_id[kept_true], -1),
            fact_keys=full._fact_keys[fact_keep] if keys else None,
        )


def _appended(rank: dict, ids: tuple) -> dict:
    """``rank`` plus the identifiers ``ids`` appends (shared if none)."""
    if len(ids) == len(rank):
        return rank
    rank = dict(rank)
    for identifier in ids[len(rank):]:
        rank[identifier] = len(rank)
    return rank


def _merge(a: IndexParts, b: IndexParts) -> IndexParts:
    """Insert the facts of part ``b`` into the fact-disjoint part ``a``.

    Each fact of ``b``, with its slots and claims, goes before the first
    fact of ``a`` with a higher key, so the result is in fact-key order;
    every id moves up by the number of elements inserted before it.
    """
    at = np.searchsorted(a.fact_keys, b.fact_keys)
    slot_at = a.fact_slot_start[at][b.slot_fact]
    claim_at = np.searchsorted(a.claim_fact, at)[b.claim_fact]
    a_fact, a_slot = (
        np.arange(n) + np.searchsorted(inserted, np.arange(n), side="right")
        for n, inserted in ((len(a.facts), at), (len(a.slot_values), slot_at))
    )
    b_fact = at + np.arange(len(b.facts))
    b_slot = slot_at + np.arange(len(b.slot_values))

    def true_slot(part, slot_to):
        return np.where(part.true_slot >= 0, slot_to[part.true_slot], -1)

    slot_fact = np.insert(a_fact[a.slot_fact], slot_at, b_fact[b.slot_fact])
    n_facts = len(a.facts) + len(b.facts)
    return IndexParts(
        facts=np.insert(a.facts, at, b.facts),
        slot_values=np.insert(a.slot_values, slot_at, b.slot_values),
        slot_fact=slot_fact,
        fact_slot_start=np.searchsorted(slot_fact, np.arange(n_facts + 1)),
        claim_source=np.insert(a.claim_source, claim_at, b.claim_source),
        claim_fact=np.insert(
            a_fact[a.claim_fact], claim_at, b_fact[b.claim_fact]
        ),
        claim_slot=np.insert(
            a_slot[a.claim_slot], claim_at, b_slot[b.claim_slot]
        ),
        true_slot=np.insert(
            true_slot(a, a_slot), at, true_slot(b, b_slot)
        ),
        fact_keys=np.insert(a.fact_keys, at, b.fact_keys),
    )
