"""Compiled numeric view of a :class:`~repro.data.dataset.Dataset`.

Iterative truth discovery algorithms run tens of passes over every claim,
so they operate on flat integer arrays rather than on dictionaries.  A
:class:`DatasetIndex` compiles a dataset once into:

* ``claim_source`` / ``claim_fact`` / ``claim_slot`` — one entry per claim,
  holding the integer id of the claiming source, the claimed fact, and the
  *value slot* (the pair (fact, distinct value)) the claim votes for;
* ``slot_fact`` — the fact id of every value slot, with slots of the same
  fact contiguous, so per-fact reductions are ``np.*.reduceat`` calls over
  ``fact_slot_start`` offsets;
* ``true_slot`` — for every fact, the slot of the ground-truth value if
  some source actually claimed it, else ``-1``.

The compile reads the raw claim dict directly, turning every claim into
integer codes (source rank, packed fact key, value code), and does the
rest in numpy: one ``lexsort`` orders claims fact-major and
source-ordered, and one ``np.unique`` over (fact, value code) pairs
numbers each fact's slots in first-appearance order.  Value codes come
from one dict, so two claims of a fact share a slot exactly when a dict
would hold them as one key (``1 == 1.0 == True``; a NaN only matches
the same object).  ``tests/oracles/index.py`` keeps the per-fact loop
this replaced, and the tests pin every array against it.

The segment helpers (:func:`segment_sum`, :func:`segment_max`,
:func:`segment_argmax`, :func:`segment_mean`) implement the per-fact
reductions every algorithm needs (vote totals, soft-max normalisation,
winner selection).
"""

from __future__ import annotations

import weakref
from functools import cached_property
from operator import itemgetter

import numpy as np

from repro.data.dataset import Dataset
from repro.data.types import Fact, Value

#: Fact keys pack (object rank, attribute rank) into one int64 as
#: ``obj_rank << _KEY_SHIFT | attr_rank``.  Ranks only ever append, so a
#: fact's key is stable across dataset extensions, and keys sort in the
#: canonical fact order (object-major, then attribute order).
_KEY_SHIFT = 32
_RANK_MASK = (1 << _KEY_SHIFT) - 1


def segment_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of ``values`` within each contiguous segment.

    ``starts`` holds the begin offset of every segment plus a final
    sentinel equal to ``len(values)``.
    """
    if len(values) == 0:
        return np.zeros(len(starts) - 1, dtype=float)
    return np.add.reduceat(values, starts[:-1])


def segment_max(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Maximum of ``values`` within each contiguous segment."""
    if len(values) == 0:
        return np.zeros(len(starts) - 1, dtype=float)
    return np.maximum.reduceat(values, starts[:-1])


def segment_argmax(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Index (into ``values``) of the per-segment maximum.

    Ties break toward the lowest index, i.e. the earliest-seen value slot,
    which makes winner selection deterministic.
    """
    n_segments = len(starts) - 1
    out = np.empty(n_segments, dtype=np.int64)
    maxima = segment_max(values, starts)
    is_max = values == np.repeat(maxima, np.diff(starts))
    positions = np.arange(len(values))
    # First position achieving the max in each segment.
    candidates = np.where(is_max, positions, len(values))
    out = np.minimum.reduceat(candidates, starts[:-1]) if len(values) else out
    return out


def segment_mean(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mean of ``values`` within each contiguous segment."""
    sizes = np.diff(starts)
    sums = segment_sum(values, starts)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(sizes > 0, sums / np.maximum(sizes, 1), 0.0)
    return means


class DatasetIndex:
    """Flat integer-array view of a dataset for vectorised algorithms.

    Every reduction works in float64, which keeps each output
    bit-identical to the original per-claim loops.
    """

    def __init__(self, dataset: Dataset) -> None:
        self._dataset = dataset
        sources = dataset.sources
        objects = dataset.objects
        attributes = dataset.attributes
        self.n_sources = len(sources)
        self._source_id = {s: i for i, s in enumerate(sources)}
        obj_rank = {o: i for i, o in enumerate(objects)}
        attr_rank = {a: i for i, a in enumerate(attributes)}

        # Integer codes per claim, read straight off the raw claim dict.
        # Values are factorised by a dict, so two values share a code
        # exactly when a per-fact dict would put them in one slot
        # (1 == 1.0 == True; a NaN only matches the same object).
        claims = dataset.claims
        n = len(claims)
        values = list(claims.values())
        codes: dict[Value, int] = {}
        code_of = codes.setdefault
        value_code = np.fromiter(
            (code_of(v, len(codes)) for v in values), dtype=np.int64, count=n
        )
        ranks = (self._source_id, obj_rank, attr_rank)
        src, obj, attr = (
            np.fromiter(
                map(rank.__getitem__, map(itemgetter(field), claims)),
                dtype=np.int64,
                count=n,
            )
            for field, rank in enumerate(ranks)
        )

        # Claims fact-major (keys sort object-major, then attribute
        # order), source-ordered within each fact.
        key = (obj << _KEY_SHIFT) | attr
        order = np.lexsort((src, key))
        claim_key = key[order]
        claim_code = value_code[order]
        fact_opens = np.ones(n, dtype=bool)
        np.not_equal(claim_key[1:], claim_key[:-1], out=fact_opens[1:])
        claim_fact = np.cumsum(fact_opens) - 1
        fact_keys = claim_key[fact_opens]
        n_facts = len(fact_keys)

        # Slots per fact in first-appearance order: a claim opens a slot
        # when it is the first of its (fact, value code) pair.
        pairs, first, pair_of = np.unique(
            claim_fact * len(codes) + claim_code,
            return_index=True,
            return_inverse=True,
        )
        opener = first[pair_of]
        slot_opens = opener == np.arange(n)
        slot_at = np.cumsum(slot_opens) - 1
        slot_claims = np.flatnonzero(slot_opens)
        slot_fact = claim_fact[slot_claims]
        fact_slot_start = np.searchsorted(slot_fact, np.arange(n_facts + 1))

        fact_objects = list(
            map(objects.__getitem__, (fact_keys >> _KEY_SHIFT).tolist())
        )
        fact_attributes = list(
            map(attributes.__getitem__, (fact_keys & _RANK_MASK).tolist())
        )
        self.facts: tuple[Fact, ...] = tuple(
            map(Fact, fact_objects, fact_attributes)
        )

        # The true slot is the slot whose value code is the truth's.
        truth_of = dataset.truth.get
        true_code = np.fromiter(
            (
                -1 if t is None else codes.get(t, -1)
                for t in map(truth_of, zip(fact_objects, fact_attributes))
            ),
            dtype=np.int64,
            count=n_facts,
        )
        true_slot = np.full(n_facts, -1, dtype=np.int64)
        known = np.flatnonzero(true_code >= 0)
        wanted = known * len(codes) + true_code[known]
        at = np.minimum(np.searchsorted(pairs, wanted), len(pairs) - 1)
        claimed = pairs[at] == wanted
        true_slot[known[claimed]] = slot_at[first[at[claimed]]]

        # Each slot's value is its first claim's own value object.
        self.slot_values: tuple[Value, ...] = tuple(
            map(values.__getitem__, order[slot_claims].tolist())
        )
        self.n_facts = n_facts
        self.slot_fact = slot_fact
        self.fact_slot_start = fact_slot_start
        self.claim_source = src[order]
        self.claim_fact = claim_fact
        self.claim_slot = slot_at[opener]
        self.true_slot = true_slot
        self.n_slots = len(self.slot_values)
        self.n_claims = n
        self._fact_keys = fact_keys

    @classmethod
    def _from_parts(
        cls,
        dataset: Dataset,
        facts: tuple[Fact, ...],
        slot_values: tuple[Value, ...],
        slot_fact: np.ndarray,
        fact_slot_start: np.ndarray,
        claim_source: np.ndarray,
        claim_fact: np.ndarray,
        claim_slot: np.ndarray,
        true_slot: np.ndarray,
        fact_keys: np.ndarray | None = None,
    ) -> "DatasetIndex":
        """Assemble an index directly from compiled arrays.

        Used by :class:`~repro.data.claim_engine.ClaimIndexEngine` to
        slice per-block views out of the full index without re-walking
        the claim dictionaries.  The arrays must satisfy the same layout
        invariants ``__init__`` produces (facts object-major, slots in
        first-appearance order, claims fact-major and source-ordered).
        ``fact_keys`` are the packed fact keys of a full index (block
        views leave them out).  The view refers to ``dataset`` weakly:
        the dataset owns the engine that owns the view, and a strong
        back-reference would leave all three in a reference cycle.
        """
        index = object.__new__(cls)
        index._dataset = weakref.ref(dataset)
        index.facts = facts
        index.n_sources = len(dataset.sources)
        index.n_facts = len(facts)
        index._source_id = {s: i for i, s in enumerate(dataset.sources)}
        index.slot_values = slot_values
        index.slot_fact = slot_fact
        index.fact_slot_start = fact_slot_start
        index.claim_source = claim_source
        index.claim_fact = claim_fact
        index.claim_slot = claim_slot
        index.true_slot = true_slot
        index.n_slots = len(slot_values)
        index.n_claims = len(claim_source)
        index._fact_keys = fact_keys
        return index

    @property
    def dataset(self) -> Dataset:
        """The dataset this index was compiled from.

        Indexes an engine owns hold it weakly (see :meth:`_from_parts`).
        """
        dataset = self._dataset
        return dataset() if isinstance(dataset, weakref.ref) else dataset

    @cached_property
    def claims_per_source(self) -> np.ndarray:
        """Number of claims made by every source (may contain zeros)."""
        counts = np.bincount(self.claim_source, minlength=self.n_sources)
        return counts.astype(float)

    @cached_property
    def claims_per_fact(self) -> np.ndarray:
        """Number of claims received by every fact."""
        counts = np.bincount(self.claim_fact, minlength=self.n_facts)
        return counts.astype(float)

    @cached_property
    def slots_per_fact(self) -> np.ndarray:
        """Number of distinct claimed values per fact."""
        return np.diff(self.fact_slot_start).astype(float)

    @cached_property
    def votes_per_slot(self) -> np.ndarray:
        """Number of sources voting for every value slot."""
        counts = np.bincount(self.claim_slot, minlength=self.n_slots)
        return counts.astype(float)

    # ------------------------------------------------------------------
    # Shared incidence structure (CSR views + slot segmentation)
    # ------------------------------------------------------------------

    @cached_property
    def incidence_source_slot(self):
        """CSR ``(n_sources, n_slots)`` claim incidence."""
        from scipy import sparse

        data = np.ones(self.n_claims)
        return sparse.csr_matrix(
            (data, (self.claim_source, self.claim_slot)),
            shape=(self.n_sources, self.n_slots),
        )

    @cached_property
    def incidence_source_fact(self):
        """CSR ``(n_sources, n_facts)`` fact-coverage incidence."""
        from scipy import sparse

        data = np.ones(self.n_claims)
        return sparse.csr_matrix(
            (data, (self.claim_source, self.claim_fact)),
            shape=(self.n_sources, self.n_facts),
        )

    @cached_property
    def claims_slot_sorted(self) -> np.ndarray:
        """Claim positions stably sorted by slot id.

        Claims of the same slot keep their original (source) order, so
        ``claims_slot_sorted`` groups every slot's providers into one
        contiguous run — the segmentation the vectorized discounted-vote
        kernel reduces over.
        """
        return np.argsort(self.claim_slot, kind="stable")

    @cached_property
    def slot_claim_starts(self) -> np.ndarray:
        """Start offset of every slot's run in slot-sorted claim order.

        Length ``n_slots + 1`` (the last entry is ``n_claims``), so slot
        ``v``'s providers occupy ``claims_slot_sorted[starts[v]:starts[v+1]]``.
        """
        sorted_slots = self.claim_slot[self.claims_slot_sorted]
        return np.searchsorted(
            sorted_slots, np.arange(self.n_slots + 1)
        ).astype(np.int64)

    @cached_property
    def _tie_breaker(self) -> np.ndarray:
        """Deterministic pseudo-random slot ranks for breaking exact ties.

        Breaking ties by first-seen slot correlates with source order,
        which silently hands every tied fact to whichever source happens
        to be enumerated first; a fixed random permutation decorrelates
        the choice while keeping runs reproducible.
        """
        rng = np.random.default_rng(0x7B5 + self.n_slots)
        return rng.permutation(self.n_slots).astype(float)

    # ------------------------------------------------------------------
    # Core reductions used by the algorithm engine
    # ------------------------------------------------------------------

    def slot_scores(self, source_weight: np.ndarray) -> np.ndarray:
        """Weighted vote total of every slot given per-source weights."""
        return np.bincount(
            self.claim_slot,
            weights=source_weight[self.claim_source],
            minlength=self.n_slots,
        )

    def sum_per_slot(self, per_claim: np.ndarray) -> np.ndarray:
        """Sum an arbitrary per-claim quantity into its value slot."""
        return np.bincount(
            self.claim_slot, weights=per_claim, minlength=self.n_slots
        )

    def sum_per_fact(self, per_claim: np.ndarray) -> np.ndarray:
        """Sum an arbitrary per-claim quantity into its fact."""
        return np.bincount(
            self.claim_fact, weights=per_claim, minlength=self.n_facts
        )

    def sum_per_source(self, per_claim: np.ndarray) -> np.ndarray:
        """Sum an arbitrary per-claim quantity into its claiming source."""
        return np.bincount(
            self.claim_source, weights=per_claim, minlength=self.n_sources
        )

    def normalize_per_fact(self, slot_score: np.ndarray) -> np.ndarray:
        """Scale slot scores so they sum to one within every fact."""
        totals = segment_sum(slot_score, self.fact_slot_start)
        safe = np.where(totals > 0, totals, 1.0)
        return slot_score / safe[self.slot_fact]

    def softmax_per_fact(self, slot_score: np.ndarray) -> np.ndarray:
        """Numerically-stable soft-max of slot scores within every fact."""
        maxima = segment_max(slot_score, self.fact_slot_start)
        shifted = np.exp(slot_score - maxima[self.slot_fact])
        totals = segment_sum(shifted, self.fact_slot_start)
        return shifted / totals[self.slot_fact]

    def winning_slots(self, slot_score: np.ndarray) -> np.ndarray:
        """Per-fact slot id with the highest score.

        Exact ties break by a fixed pseudo-random slot rank (see
        ``_tie_breaker``), not by claim order.
        """
        maxima = segment_max(slot_score, self.fact_slot_start)
        is_max = slot_score == maxima[self.slot_fact]
        candidates = np.where(is_max, self._tie_breaker, -1.0)
        return segment_argmax(candidates, self.fact_slot_start)

    def source_mean_of_slots(self, slot_value: np.ndarray) -> np.ndarray:
        """Per-source mean of a per-slot quantity over the slots it voted for.

        This is the generic "trustworthiness = average confidence of
        provided values" update.  Sources with no claims get 0.
        """
        sums = np.bincount(
            self.claim_source,
            weights=slot_value[self.claim_slot],
            minlength=self.n_sources,
        )
        counts = self.claims_per_source
        return np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)

    def predictions_from_slots(self, winners: np.ndarray) -> dict[Fact, Value]:
        """Materialise per-fact winning slots into a fact → value mapping."""
        return {
            fact: self.slot_values[winners[f_id]]
            for f_id, fact in enumerate(self.facts)
        }
