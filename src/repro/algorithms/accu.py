"""The Accu family (Dong, Berti-Equille & Srivastava, VLDB 2009).

Three algorithms share a Bayesian machinery:

* **Depen** — detects copying relationships between sources and performs
  dependence-discounted voting with a *uniform* source accuracy;
* **Accu** — additionally estimates per-source accuracy and weights votes
  by ``ln(n * A(s) / (1 - A(s)))``;
* **AccuSim** — Accu plus cross-value similarity support (values that are
  close in meaning partially share their vote counts).

Copy detection compares every pair of sources on their commonly covered
facts, splitting agreements into *common true values* (weak evidence of
copying — independent good sources also agree on the truth) and *common
false values* (strong evidence — two independent sources rarely make the
same mistake), and applies Bayes' rule with a prior ``alpha`` on
dependence and an assumed copy rate ``c``.  Votes are then counted in
decreasing source-accuracy order, discounting each vote by the
probability that it was copied from an already-counted source.

The pairwise agreement counts are sparse-matrix products over the
claim-incidence matrix, so detection costs one sparse GEMM per iteration
rather than a Python double loop over source pairs.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

import numpy as np

from repro.algorithms.base import EngineState, TruthDiscoveryAlgorithm
from repro.algorithms.convergence import ConvergenceCriterion
from repro.algorithms.similarity import SlotSimilarity
from repro.data.index import DatasetIndex

_ACC_EPSILON = 1e-4


class CopyDetector:
    """Bayesian pairwise source-dependence estimation.

    Parameters
    ----------
    alpha:
        Prior probability that an arbitrary pair of sources is dependent.
    copy_rate:
        Probability ``c`` that a dependent source copies any particular
        claim rather than providing it independently.
    n_false_values:
        Size of the false-value domain per fact.  ``None`` (default)
        adapts to the data: the mean number of observed alternative
        values per fact, clamped to at least 1.  A fixed domain size
        (Dong et al. use 100) flattens the accuracy weights
        ``ln(n*A/(1-A))`` into near-uniform votes on datasets whose facts
        have only a handful of candidates.
    """

    def __init__(
        self,
        alpha: float = 0.2,
        copy_rate: float = 0.8,
        n_false_values: int | None = None,
        calibrate_true_agreement: bool = True,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not 0.0 < copy_rate < 1.0:
            raise ValueError("copy_rate must be in (0, 1)")
        self.alpha = alpha
        self.copy_rate = copy_rate
        self.n_false_values = n_false_values
        self.calibrate_true_agreement = calibrate_true_agreement

    def prepare(self, index: DatasetIndex) -> None:
        """Precompute the iteration-independent incidence products.

        The claim/fact incidence matrices come from the shared index
        (cached there, so repeated solves of the same block reuse them);
        only the two Gram products are computed per detector.
        """
        self._claims = index.incidence_source_slot
        fact_incidence = index.incidence_source_fact
        self._common_facts = np.asarray(
            (fact_incidence @ fact_incidence.T).todense(), dtype=float
        )
        self._common_values = np.asarray(
            (self._claims @ self._claims.T).todense(), dtype=float
        )
        self._index = index

    def dependence(
        self,
        winners: np.ndarray,
        accuracy: np.ndarray,
        fact_confident: np.ndarray | None = None,
    ) -> np.ndarray:
        """Posterior P(dependent) for every source pair.

        ``winners`` is the current per-fact winning slot (the working
        truth used to split agreements into true/false), ``accuracy`` the
        current per-source accuracy estimates.

        ``fact_confident`` optionally restricts the evidence to facts
        where the working truth is trustworthy.  Without the gate,
        contested facts poison the detector: whichever side *lost* the
        working vote looks like a clique sharing "false" values, so
        honest sources get branded copiers of each other exactly on the
        facts that matter most.
        """
        from scipy import sparse  # lazy: keeps scipy out of `import repro`

        index = self._index
        claim_is_true = (
            winners[index.claim_fact] == index.claim_slot
        ).astype(float)
        if fact_confident is None:
            claim_counted = np.ones(index.n_claims)
            common_facts = self._common_facts
            common_values = self._common_values
        else:
            claim_counted = fact_confident[index.claim_fact].astype(float)
            claim_is_true = claim_is_true * claim_counted
            counted_claims = sparse.csr_matrix(
                (claim_counted, (index.claim_source, index.claim_slot)),
                shape=(index.n_sources, index.n_slots),
            )
            counted_facts = sparse.csr_matrix(
                (claim_counted, (index.claim_source, index.claim_fact)),
                shape=(index.n_sources, index.n_facts),
            )
            common_facts = np.asarray(
                (counted_facts @ counted_facts.T).todense(), dtype=float
            )
            common_values = np.asarray(
                (counted_claims @ counted_claims.T).todense(), dtype=float
            )
        true_claims = sparse.csr_matrix(
            (claim_is_true, (index.claim_source, index.claim_slot)),
            shape=(index.n_sources, index.n_slots),
        )
        k_true = np.asarray((true_claims @ true_claims.T).todense(), dtype=float)
        k_false = common_values - k_true
        k_diff = common_facts - common_values

        # Pairwise accuracy: mean of the two sources' current accuracies.
        acc = np.clip(accuracy, _ACC_EPSILON, 1.0 - _ACC_EPSILON)
        pair_acc = (acc[:, None] + acc[None, :]) / 2.0
        n = self._false_domain_size()
        c = self.copy_rate

        # True-agreement calibration: two highly accurate sources agree on
        # the truth almost always, so observing them agree carries no
        # copying signal.  When the observed true-agreement rate exceeds
        # what the current (possibly underestimated) accuracies predict,
        # trust the observation — otherwise honest good sources drift into
        # "copier" territory one true agreement at a time.
        if self.calibrate_true_agreement:
            with np.errstate(invalid="ignore", divide="ignore"):
                true_rate = np.where(
                    common_facts > 0, k_true / np.maximum(common_facts, 1.0), 0.0
                )
            q_true = np.clip(
                np.maximum(pair_acc**2, true_rate),
                _ACC_EPSILON,
                1.0 - _ACC_EPSILON,
            )
        else:
            q_true = np.clip(pair_acc**2, _ACC_EPSILON, 1.0 - _ACC_EPSILON)
        a_effective = np.sqrt(q_true)

        p_same_true_ind = q_true
        p_same_false_ind = (1.0 - pair_acc) ** 2 / n
        p_diff_ind = np.clip(
            1.0 - p_same_true_ind - p_same_false_ind, _ACC_EPSILON, None
        )
        p_same_true_dep = c * a_effective + (1.0 - c) * p_same_true_ind
        p_same_false_dep = c * (1.0 - pair_acc) + (1.0 - c) * p_same_false_ind
        p_diff_dep = (1.0 - c) * p_diff_ind

        log_ind = (
            k_true * np.log(p_same_true_ind)
            + k_false * np.log(np.clip(p_same_false_ind, 1e-300, None))
            + k_diff * np.log(p_diff_ind)
        )
        log_dep = (
            k_true * np.log(p_same_true_dep)
            + k_false * np.log(np.clip(p_same_false_dep, 1e-300, None))
            + k_diff * np.log(np.clip(p_diff_dep, 1e-300, None))
        )
        logit = (
            np.log(self.alpha) - np.log(1.0 - self.alpha) + log_dep - log_ind
        )
        posterior = 1.0 / (1.0 + np.exp(-np.clip(logit, -500, 500)))
        np.fill_diagonal(posterior, 0.0)
        return posterior

    def _false_domain_size(self) -> float:
        if self.n_false_values is not None:
            return float(max(self.n_false_values, 1))
        # Observed alternatives averaged over facts.
        alternatives = self._index.slots_per_fact - 1.0
        return float(max(alternatives.mean(), 1.0))


def bayesian_vote_weights(
    index: DatasetIndex,
    accuracy: np.ndarray,
    n_false_values: float,
    estimate_accuracy: bool,
    clamp: float,
) -> np.ndarray:
    """Per-source vote weights of the Accu family, clipped to be >= 0.

    The single Bayesian vote-weight helper shared by Depen (uniform
    weights), Accu and AccuSim (``ln(n * A / (1 - A))`` with the accuracy
    clamped away from the extremes), so the discounted-vote kernel has
    exactly one call site per iteration whatever the variant.
    """
    if estimate_accuracy:
        clamped = np.clip(accuracy, clamp, 1.0 - clamp)
        weight = np.log(n_false_values * clamped / (1.0 - clamped))
    else:
        weight = np.ones(index.n_sources, dtype=accuracy.dtype)
    return np.clip(weight, 0.0, None)


#: Per-index cache of the iteration-independent pair structure used by
#: :func:`discounted_votes`.  Weakly keyed: dropping the index frees it.
_PAIR_STRUCTURES: "WeakKeyDictionary[DatasetIndex, tuple]" = WeakKeyDictionary()


def _pair_structure(index: DatasetIndex) -> tuple:
    """Lower-triangle provider-pair layout of every multi-provider slot.

    In slot-sorted claim order, provider ``i`` of a slot must be
    discounted against providers ``j < i`` (in decreasing-accuracy
    order).  Which (i, j) pairs exist depends only on the slot sizes, so
    the flattened pair positions are computed once per index:

    ``pos_i`` / ``pos_j`` index into the slot-sorted claim sequence;
    ``row_starts`` delimits each provider's run of pairs so the
    independence products are one ``np.multiply.reduceat``; ``row_pos``
    maps each run back to its provider position.  Singleton slots are
    kept separately — their vote is just the provider's weight.
    ``classes`` groups the multi-provider slots by size: one
    ``(slot ids, (m, size) claim positions)`` entry per distinct size.
    """
    cached = _PAIR_STRUCTURES.get(index)
    if cached is not None:
        return cached
    starts = index.slot_claim_starts
    sizes = np.diff(starts)
    local = np.arange(index.n_claims) - np.repeat(starts[:-1], sizes)
    row_pos = np.flatnonzero(local >= 1)
    row_len = local[row_pos]
    row_starts = np.concatenate(([0], np.cumsum(row_len))).astype(np.int64)
    pos_i = np.repeat(row_pos, row_len)
    slot_start_of_row = np.repeat(starts[:-1], sizes)[row_pos]
    pos_j = (
        np.arange(len(pos_i), dtype=np.int64)
        - np.repeat(row_starts[:-1], row_len)
        + np.repeat(slot_start_of_row, row_len)
    )
    single = sizes == 1
    single_slots = np.flatnonzero(single)
    single_pos = starts[:-1][single]
    classes = []
    for size in np.unique(sizes[sizes > 1]).tolist():
        slots = np.flatnonzero(sizes == size)
        classes.append((slots, starts[slots][:, None] + np.arange(size)))
    cached = (
        row_pos, row_starts, pos_i, pos_j, single_slots, single_pos, classes
    )
    _PAIR_STRUCTURES[index] = cached
    return cached


def discounted_votes(
    index: DatasetIndex,
    dependence: np.ndarray,
    accuracy: np.ndarray,
    copy_rate: float,
    vote_weight: np.ndarray,
) -> np.ndarray:
    """Dependence-discounted weighted vote count per value slot.

    For every slot, its providers are walked in decreasing-accuracy
    order; each provider's ``vote_weight`` is multiplied by the
    probability that its claim is independent of every already-counted
    provider of the same slot: ``prod(1 - c * P(dep))``.

    Evaluated as segment reductions over the slot-sorted claims rather
    than a per-slot loop; the products and the per-slot dots run in the
    loop's order, so the totals are bitwise equal to the per-slot loop
    kept as a test oracle in ``tests/oracles/``.
    """
    totals = np.zeros(index.n_slots, dtype=float)
    if index.n_claims == 0:
        return totals
    order = np.argsort(-accuracy, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))

    # Claims sorted by (slot, provider accuracy rank): the composite key
    # is unique (one claim per source per slot), so this reproduces the
    # per-slot loop's provider order in one global argsort.
    slot_sorted = index.claims_slot_sorted
    key = index.claim_slot[slot_sorted] * np.int64(index.n_sources)
    key += rank[index.claim_source[slot_sorted]]
    perm = np.argsort(key, kind="stable")
    src = index.claim_source[slot_sorted][perm]

    row_pos, row_starts, pos_i, pos_j, single_slots, single_pos, classes = (
        _pair_structure(index)
    )
    independence = np.ones(index.n_claims, dtype=float)
    if len(pos_i):
        factors = 1.0 - copy_rate * dependence[src[pos_i], src[pos_j]]
        # One multiply.reduceat evaluates every provider's running
        # product prod(factors[i, :i]) exactly as np.prod would.
        independence[row_pos] = np.multiply.reduceat(factors, row_starts[:-1])
    weights = vote_weight[src]
    totals[single_slots] = weights[single_pos]
    # One np.vecdot per slot size: each row is reduced in the same order
    # as the loop's per-slot np.dot, so the totals are bitwise equal to
    # it (tests/test_accu.py checks vecdot against dot on the BLAS in use).
    for slots, pos in classes:
        totals[slots] = np.vecdot(independence[pos], weights[pos])
    return totals


def _confident_facts(
    index: DatasetIndex,
    confidence: np.ndarray,
    winners: np.ndarray,
    margin: float,
) -> np.ndarray:
    """Facts whose working truth wins by at least ``margin`` of the mass.

    ``confidence`` must be normalised within each fact.  Facts with a
    single claimed value are always confident (unanimous).
    """
    from repro.data.index import segment_max

    winner_share = confidence[winners]
    masked = confidence.copy()
    masked[winners] = -np.inf
    runner_up = segment_max(masked, index.fact_slot_start)
    runner_up = np.where(np.isfinite(runner_up), runner_up, 0.0)
    return (winner_share - runner_up) >= margin


class _AccuBase(TruthDiscoveryAlgorithm):
    """Shared fixed point of the Depen / Accu / AccuSim family."""

    #: Whether per-source accuracy is estimated (Accu) or uniform (Depen).
    estimate_accuracy = True
    #: Similarity weight for AccuSim; 0 disables similarity support.
    similarity_weight = 0.0

    #: Accuracy clamp used for the vote weights ln(n*A/(1-A)): estimates
    #: at the extremes would otherwise produce unbounded weights and an
    #: oscillating fixed point.
    _WEIGHT_CLAMP = 0.05

    def __init__(
        self,
        initial_accuracy: float = 0.8,
        alpha: float = 0.2,
        copy_rate: float = 0.8,
        n_false_values: int | None = None,
        damping: float = 0.3,
        warmup_iterations: int = 0,
        confidence_gate: float = 0.0,
        calibrate_true_agreement: bool = True,
        tolerance: float = 1e-3,
        max_iterations: int = 20,
    ) -> None:
        if not 0.0 < initial_accuracy < 1.0:
            raise ValueError("initial_accuracy must be in (0, 1)")
        if not 0.0 <= damping < 1.0:
            raise ValueError("damping must be in [0, 1)")
        if warmup_iterations < 0:
            raise ValueError("warmup_iterations must be non-negative")
        if confidence_gate > 1.0:
            raise ValueError("confidence_gate must be at most 1 (<= 0 disables)")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.initial_accuracy = initial_accuracy
        self.damping = damping
        self.warmup_iterations = warmup_iterations
        self.confidence_gate = confidence_gate
        self.detector = CopyDetector(
            alpha, copy_rate, n_false_values, calibrate_true_agreement
        )
        self.criterion = ConvergenceCriterion(tolerance, measure="max_change")
        self.max_iterations = max_iterations

    def _solve(self, index: DatasetIndex) -> EngineState:
        # A fresh detector per call: `prepare` caches dataset-specific
        # matrices, and one algorithm instance solves every block.
        detector = CopyDetector(
            alpha=self.detector.alpha,
            copy_rate=self.detector.copy_rate,
            n_false_values=self.detector.n_false_values,
            calibrate_true_agreement=self.detector.calibrate_true_agreement,
        )
        detector.prepare(index)
        similarity = (
            SlotSimilarity.shared(index) if self.similarity_weight > 0 else None
        )
        accuracy = np.full(index.n_sources, self.initial_accuracy, dtype=float)
        n = detector._false_domain_size()

        # Bootstrap the working truth with a plain majority vote.
        winners = index.winning_slots(index.votes_per_slot)
        confidence = index.normalize_per_fact(index.votes_per_slot)
        no_dependence = np.zeros(
            (index.n_sources, index.n_sources), dtype=float
        )
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            # Copy-detection evidence is gated to facts where the working
            # truth is confident: on contested facts (majority near 50/50)
            # the losing side's honest agreement would read as a clique
            # sharing false values.  An optional accuracy-only warm-up
            # (ablation knob) skips detection entirely for a few rounds.
            if self.estimate_accuracy and iterations <= self.warmup_iterations:
                dependence = no_dependence
            else:
                fact_confident = (
                    None
                    if self.confidence_gate <= 0.0
                    else _confident_facts(
                        index, confidence, winners, self.confidence_gate
                    )
                )
                dependence = detector.dependence(
                    winners, accuracy, fact_confident
                )
            weight = bayesian_vote_weights(
                index, accuracy, n, self.estimate_accuracy, self._WEIGHT_CLAMP
            )
            votes = discounted_votes(
                index, dependence, accuracy, detector.copy_rate, weight
            )
            if similarity is not None:
                votes = similarity.weighted_support(votes, self.similarity_weight)
            confidence = index.softmax_per_fact(votes)
            winners = index.winning_slots(votes)
            estimated = index.source_mean_of_slots(confidence)
            # Damped update: the raw estimate is winner-take-all after the
            # soft-max and makes the fixed point oscillate; keep a share of
            # the previous estimate.
            new_accuracy = (
                self.damping * accuracy + (1.0 - self.damping) * estimated
            )
            new_accuracy = np.clip(new_accuracy, _ACC_EPSILON, 1.0 - _ACC_EPSILON)
            stable = self.criterion.converged(accuracy, new_accuracy)
            accuracy = new_accuracy
            if stable:
                break
        return EngineState(
            slot_confidence=confidence,
            source_trust=accuracy,
            iterations=iterations,
        )


class Depen(_AccuBase):
    """Dependence-aware voting with uniform source accuracy."""

    name = "DEPEN"
    estimate_accuracy = False


class Accu(_AccuBase):
    """Joint source-accuracy estimation and copy detection."""

    name = "Accu"
    estimate_accuracy = True


class AccuSim(_AccuBase):
    """Accu with similarity support between claimed values."""

    name = "AccuSim"
    estimate_accuracy = True
    similarity_weight = 0.5

    def __init__(self, *args, similarity_weight: float = 0.5, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.similarity_weight = similarity_weight
