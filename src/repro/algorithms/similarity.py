"""Value similarity functions used by TruthFinder and AccuSim.

TruthFinder's "implication" between claimed values and AccuSim's
similarity-aware vote counts both need a symmetric similarity
``sim(v1, v2) in [0, 1]`` between two claimed values:

* numbers compare by relative difference — two stock prices of 10.00 and
  10.01 support each other strongly, 10 and 1000 not at all;
* strings compare by a blend of normalised Levenshtein similarity and
  token Jaccard, so "Barack Obama" and "Obama, Barack" are close;
* values of incomparable types have similarity 0.

:class:`SlotSimilarity` precomputes, per fact, the dense slot-by-slot
similarity matrix (diagonal zeroed: a value does not *additionally*
support itself), which is what the iterative updates consume.
"""

from __future__ import annotations

import numbers
import threading
import weakref
from functools import lru_cache

import numpy as np

from repro.data.index import DatasetIndex
from repro.data.types import Value


def numeric_similarity(a: float, b: float) -> float:
    """Similarity of two numbers by relative difference, in [0, 1]."""
    if a == b:
        return 1.0
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 1.0
    return max(0.0, 1.0 - abs(a - b) / scale)


def levenshtein_distance(a: str, b: str) -> int:
    """Classic edit distance with a two-row dynamic program."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def string_similarity(a: str, b: str) -> float:
    """Blend of normalised edit similarity and token Jaccard, in [0, 1]."""
    if a == b:
        return 1.0
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    edit = 1.0 - levenshtein_distance(a.lower(), b.lower()) / longest
    tokens_a = set(a.lower().split())
    tokens_b = set(b.lower().split())
    union = tokens_a | tokens_b
    jaccard = len(tokens_a & tokens_b) / len(union) if union else 1.0
    return max(edit, jaccard)


def sequence_similarity(a: tuple, b: tuple) -> float:
    """Jaccard similarity of two value sequences, in [0, 1].

    List-valued claims (author lists, cast lists) are compared as sets:
    the order books sites list authors in is presentation, not
    information — but a missing or extra author is a real disagreement
    (the TruthFinder paper's original evaluation domain).
    """
    set_a, set_b = set(a), set(b)
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)


def _value_similarity_uncached(a: Value, b: Value) -> float:
    if isinstance(a, bool) != isinstance(b, bool):
        # Guard before the equality check: Python treats True == 1.
        return 0.0
    if a == b:
        return 1.0
    a_num = isinstance(a, numbers.Real) and not isinstance(a, bool)
    b_num = isinstance(b, numbers.Real) and not isinstance(b, bool)
    if a_num and b_num:
        return numeric_similarity(float(a), float(b))
    if isinstance(a, str) and isinstance(b, str):
        return string_similarity(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return sequence_similarity(a, b)
    return 0.0


#: Process-wide value-pair memo.  String similarity runs a Levenshtein
#: dynamic program, and the same value pairs recur across the reference
#: pass, every block view and every serving refresh of one corpus — the
#: cache turns all but the first computation into a dict hit.
_cached_pair_similarity = lru_cache(maxsize=1 << 16)(_value_similarity_uncached)


def value_similarity(a: Value, b: Value) -> float:
    """Symmetric similarity between two claimed values, in [0, 1].

    Pure function of its arguments; hashable pairs are memoised
    process-wide (unhashable values fall through to direct evaluation).
    """
    try:
        return _cached_pair_similarity(a, b)
    except TypeError:
        return _value_similarity_uncached(a, b)


class SlotSimilarity:
    """Per-fact slot similarity matrices for a compiled dataset.

    ``matrix(fact_id)`` returns the dense ``(n_slots_f, n_slots_f)``
    similarity matrix of the fact's distinct values with a zero diagonal.
    Matrices are computed lazily and memoised because many facts are never
    touched by similarity-aware algorithms (facts with a single slot).
    """

    #: Guards first-use creation of an index's instance (see :meth:`shared`).
    _CREATE_LOCK = threading.Lock()

    def __init__(self, index: DatasetIndex) -> None:
        # The index owns this instance (see :meth:`shared`); a weak
        # back-reference and a plain dict memo keep the pair out of a
        # reference cycle, so it is freed as soon as the index is.
        self._index = weakref.proxy(index)
        self._matrices: dict[int, np.ndarray] = {}
        self._active: list[tuple[int, int, np.ndarray]] | None = None
        self._groups: list[tuple[np.ndarray, np.ndarray]] | None = None

    @classmethod
    def shared(cls, index: DatasetIndex) -> "SlotSimilarity":
        """The memoised instance for ``index`` (created on first use).

        Similarity matrices depend only on the index's slot values, so
        every solve over the same index (repeated runs, serving
        refreshes) can share one instance and its cached matrices.  The
        instance is cached on the index itself, so it is freed with it.
        """
        instance = getattr(index, "_slot_similarity", None)
        if instance is None:
            with cls._CREATE_LOCK:
                instance = getattr(index, "_slot_similarity", None)
                if instance is None:
                    instance = cls(index)
                    index._slot_similarity = instance
        return instance

    def _compute_matrix(self, fact_id: int) -> np.ndarray:
        start = self._index.fact_slot_start[fact_id]
        stop = self._index.fact_slot_start[fact_id + 1]
        values = self._index.slot_values[start:stop]
        n = len(values)
        matrix = np.zeros((n, n), dtype=float)
        for i in range(n):
            for j in range(i + 1, n):
                sim = value_similarity(values[i], values[j])
                matrix[i, j] = sim
                matrix[j, i] = sim
        return matrix

    def matrix(self, fact_id: int) -> np.ndarray:
        """Similarity matrix of ``fact_id``'s slots (zero diagonal)."""
        matrix = self._matrices.get(fact_id)
        if matrix is None:
            matrix = self._matrices[fact_id] = self._compute_matrix(fact_id)
        return matrix

    def weighted_support(
        self, slot_score: np.ndarray, weight: float
    ) -> np.ndarray:
        """Add cross-value support to per-slot scores, fact by fact.

        Computes ``score*(v) = score(v) + weight * sum_{v'} sim(v, v') *
        score(v')`` — TruthFinder's implication adjustment and AccuSim's
        similarity-augmented vote count share this exact form.

        The facts whose similarity matrix has at least one nonzero entry
        (facts with all-dissimilar values leave their scores untouched,
        so skipping them is exact) are batched by slot count and each
        size group is applied as one ``(b, n, n) @ (b, n, 1)`` batched
        matmul — bit-identical to the per-fact products of an every-fact
        loop (kept as a test oracle in ``tests/oracles/``), since batched
        ``np.matmul`` computes each matrix-vector product exactly as the
        standalone ``m @ v`` does.
        """
        adjusted = slot_score.astype(np.float64, copy=True)
        for gather, matrices in self._active_groups():
            blocks = slot_score[gather]
            # (weight * M) @ b, not weight * (M @ b): the every-fact
            # loop scales the matrix first, and bit-identity demands the
            # same floating-point association.
            support = np.matmul(weight * matrices, blocks[..., None])[..., 0]
            adjusted[gather] = blocks + support
        return adjusted

    def _active_facts(self) -> list[tuple[int, int, np.ndarray]]:
        """(start, stop, matrix) of every fact with nonzero similarity."""
        if self._active is None:
            starts = self._index.fact_slot_start
            active = []
            for fact_id in range(self._index.n_facts):
                start, stop = int(starts[fact_id]), int(starts[fact_id + 1])
                if stop - start < 2:
                    continue
                matrix = self.matrix(fact_id)
                if matrix.any():
                    active.append((start, stop, matrix))
            self._active = active
        return self._active

    def _active_groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Active facts packed by slot count: (gather, stacked matrices).

        ``gather`` is the ``(b, n)`` slot-id array of a size group's
        facts; ``matrices`` stacks their similarity matrices into
        ``(b, n, n)``.  Facts are disjoint slot ranges, so scattering
        through ``gather`` never collides.
        """
        if self._groups is None:
            by_size: dict[int, list[tuple[int, np.ndarray]]] = {}
            for start, stop, matrix in self._active_facts():
                by_size.setdefault(stop - start, []).append((start, matrix))
            packed = []
            for size, items in sorted(by_size.items()):
                group_starts = np.array([s for s, _ in items], dtype=np.intp)
                gather = group_starts[:, None] + np.arange(size, dtype=np.intp)
                matrices = np.stack([m for _, m in items])
                packed.append((gather, matrices))
            self._groups = packed
        return self._groups
