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
integer codes (source rank, packed fact key) plus its value object, and
:func:`compile_claims` does the rest in numpy: one ``lexsort`` orders
claims fact-major and source-ordered, and one ``np.unique`` over (fact,
value code) pairs numbers each fact's slots in first-appearance order.
Value codes come from one dict, so two claims of a fact share a slot
exactly when a dict would hold them as one key (``1 == 1.0 == True``; a
NaN only matches the same object).  The claim engine's delta compile
runs the same kernel over the claims of the facts a batch touches.
``tests/oracles/index.py`` keeps the per-fact loop this replaced, and
the tests pin every array against it.

The segment helpers (:func:`segment_sum`, :func:`segment_max`,
:func:`segment_argmax`, :func:`segment_mean`) implement the per-fact
reductions every algorithm needs (vote totals, soft-max normalisation,
winner selection).
"""

from __future__ import annotations

import weakref
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

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


class IndexParts(NamedTuple):
    """A :class:`DatasetIndex`'s arrays, with ``facts`` and ``slot_values``
    as object arrays (for fancy indexing) and optional packed fact keys.
    """

    facts: np.ndarray
    slot_values: np.ndarray
    slot_fact: np.ndarray
    fact_slot_start: np.ndarray
    claim_source: np.ndarray
    claim_fact: np.ndarray
    claim_slot: np.ndarray
    true_slot: np.ndarray
    fact_keys: np.ndarray | None


def rank_maps(dataset: Dataset) -> tuple[dict, dict, dict]:
    """The source, object and attribute rank maps of ``dataset``."""
    return tuple(
        {x: i for i, x in enumerate(ids)}
        for ids in (dataset.sources, dataset.objects, dataset.attributes)
    )


def code_claims(
    keys: Sequence[tuple], values: Iterable[Value], ranks: tuple
) -> tuple[np.ndarray, np.ndarray, list]:
    """Source ranks and packed fact keys of the claims ``keys`` (their
    (source, object, attribute) triples, coded by ``ranks``), plus their
    values: the input of :func:`compile_claims`.
    """
    n = len(keys)
    src, obj, attr = (
        np.fromiter(
            map(rank.__getitem__, map(itemgetter(field), keys)),
            dtype=np.int64,
            count=n,
        )
        for field, rank in enumerate(ranks)
    )
    return src, (obj << _KEY_SHIFT) | attr, list(values)


def compile_claims(
    dataset: Dataset, src: np.ndarray, key: np.ndarray, values: list
) -> IndexParts:
    """Compile claims given as integer codes into index arrays.

    Claim ``i`` is source rank ``src[i]`` claiming ``values[i]`` for
    the fact with packed key ``key[i]``, ranks being ``dataset``'s.  The
    claims are every claim of some facts (or of all), in any order.
    Values are factorised by a dict, so two claims of a fact share a
    slot exactly when a per-fact dict would hold them as one key (1 ==
    1.0 == True; a NaN only matches the same object), and each slot's
    value is its first claim's own object.
    """
    n = len(values)
    codes: dict[Value, int] = {}
    code_of = codes.setdefault
    value_code = np.fromiter(
        (code_of(v, len(codes)) for v in values), dtype=np.int64, count=n
    )

    # Claims fact-major (keys sort object-major, then attribute
    # order), source-ordered within each fact.
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

    fact_objects = list(
        map(dataset.objects.__getitem__, (fact_keys >> _KEY_SHIFT).tolist())
    )
    fact_attributes = list(
        map(dataset.attributes.__getitem__, (fact_keys & _RANK_MASK).tolist())
    )
    facts = np.fromiter(
        map(Fact, fact_objects, fact_attributes), dtype=object, count=n_facts
    )

    # The true slot is the slot whose value code is the truth's.  The
    # stored truth map is read in place (``Dataset.truth`` copies it).
    truth_of = dataset._truth.get
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

    return IndexParts(
        facts=facts,
        slot_values=np.fromiter(
            map(values.__getitem__, order[slot_claims].tolist()),
            dtype=object,
            count=len(slot_claims),
        ),
        slot_fact=slot_fact,
        fact_slot_start=np.searchsorted(slot_fact, np.arange(n_facts + 1)),
        claim_source=src[order],
        claim_fact=claim_fact,
        claim_slot=slot_at[opener],
        true_slot=true_slot,
        fact_keys=fact_keys,
    )


class DatasetIndex:
    """Flat integer-array view of a dataset for vectorised algorithms.

    Every reduction works in float64, which keeps each output
    bit-identical to the original per-claim loops.
    """

    def __init__(self, dataset: Dataset) -> None:
        # Integer codes per claim, read straight off the raw claim dict.
        claims = dataset.claims
        codes = code_claims(claims, claims.values(), rank_maps(dataset))
        self._assign(dataset, compile_claims(dataset, *codes))

    @classmethod
    def _from_parts(
        cls, dataset: Dataset, parts: IndexParts
    ) -> "DatasetIndex":
        """Assemble an index directly from compiled arrays.

        Used by :class:`~repro.data.claim_engine.ClaimIndexEngine` for
        block views and delta compiles, which slice and merge the parts
        of a full index instead of re-walking the claim dictionaries.
        The arrays must satisfy the same layout invariants
        :func:`compile_claims` produces (facts object-major, slots in
        first-appearance order, claims fact-major and source-ordered).
        The view refers to ``dataset`` weakly: the dataset owns the
        engine that owns the view, and a strong back-reference would
        leave all three in a reference cycle.
        """
        index = object.__new__(cls)
        index._assign(weakref.ref(dataset), parts)
        return index

    def _assign(self, dataset, parts: IndexParts) -> None:
        self._dataset = dataset
        self.facts: tuple[Fact, ...] = tuple(parts.facts.tolist())
        self.slot_values: tuple[Value, ...] = tuple(parts.slot_values.tolist())
        self.slot_fact = parts.slot_fact
        self.fact_slot_start = parts.fact_slot_start
        self.claim_source = parts.claim_source
        self.claim_fact = parts.claim_fact
        self.claim_slot = parts.claim_slot
        self.true_slot = parts.true_slot
        self._fact_keys = parts.fact_keys
        self.n_sources = len(self.dataset.sources)
        self.n_facts = len(self.facts)
        self.n_slots = len(self.slot_values)
        self.n_claims = len(self.claim_source)

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
