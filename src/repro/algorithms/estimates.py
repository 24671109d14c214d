"""2-Estimates and 3-Estimates (Galland et al., WSDM 2010).

Unlike the positive-vote-only algorithms, the Estimates family also
counts *negative* votes: a source that covers a fact but claims a
different value implicitly asserts that every other candidate is false.

* **2-Estimates** jointly estimates value truth probabilities and source
  reliabilities from positive and negative votes, with the affine
  rescaling ("lambda-normalisation") of the original paper to keep both
  estimate vectors spread over [0, 1].
* **3-Estimates** adds a per-value *difficulty*: getting an easy value
  wrong hurts a source's estimated reliability more than getting a hard
  one wrong.  We follow the averaging updates of the original paper with
  truncation of the auxiliary estimates into [epsilon, 1].
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EngineState, TruthDiscoveryAlgorithm
from repro.algorithms.convergence import ConvergenceCriterion
from repro.data.index import DatasetIndex
from repro.data.index import segment_sum

_EPSILON = 1e-6


def _rescale(values: np.ndarray, strength: float) -> np.ndarray:
    """Affine rescale toward full [0, 1] spread, blended by ``strength``."""
    low = values.min(initial=0.0)
    high = values.max(initial=1.0)
    if high - low < _EPSILON:
        return values
    stretched = (values - low) / (high - low)
    return (1.0 - strength) * values + strength * stretched


class TwoEstimates(TruthDiscoveryAlgorithm):
    """Joint truth/reliability estimation with negative votes."""

    name = "2-Estimates"

    def __init__(
        self,
        rescale_strength: float = 0.5,
        tolerance: float = 1e-4,
        max_iterations: int = 20,
    ) -> None:
        if not 0.0 <= rescale_strength <= 1.0:
            raise ValueError("rescale_strength must be in [0, 1]")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.rescale_strength = rescale_strength
        self.criterion = ConvergenceCriterion(tolerance, measure="max_change")
        self.max_iterations = max_iterations

    def _solve(self, index: DatasetIndex) -> EngineState:
        trust = np.full(index.n_sources, 0.8, dtype=float)
        belief = np.zeros(index.n_slots, dtype=float)
        # Number of sources covering every fact (voters on each slot).
        fact_voters = index.claims_per_fact
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            # Positive votes: providers with their trust.  Negative votes:
            # the fact's other voters with (1 - trust).
            positive = index.slot_scores(trust)
            one_minus = 1.0 - trust
            covered_negative = index.sum_per_fact(one_minus[index.claim_source])
            negative = covered_negative[index.slot_fact] - index.slot_scores(one_minus)
            belief = (positive + negative) / np.maximum(
                fact_voters[index.slot_fact], 1.0
            )
            belief = np.clip(_rescale(belief, self.rescale_strength), 0.0, 1.0)

            # Trust: average agreement of the source's implicit vote matrix.
            fact_disbelief = segment_sum(1.0 - belief, index.fact_slot_start)
            claimed_belief = belief[index.claim_slot]
            agreement = (
                claimed_belief
                - (1.0 - claimed_belief)
                + fact_disbelief[index.claim_fact]
            )
            votes_cast = index.slots_per_fact[index.claim_fact]
            sums = index.sum_per_source(agreement)
            totals = index.sum_per_source(votes_cast)
            new_trust = np.where(totals > 0, sums / np.maximum(totals, 1.0), 0.0)
            new_trust = np.clip(
                _rescale(new_trust, self.rescale_strength), _EPSILON, 1.0
            )
            if self.criterion.converged(trust, new_trust):
                trust = new_trust
                break
            trust = new_trust
        return EngineState(
            slot_confidence=belief,
            source_trust=trust,
            iterations=iterations,
        )


class ThreeEstimates(TwoEstimates):
    """2-Estimates plus a per-value difficulty estimate."""

    name = "3-Estimates"

    def _solve(self, index: DatasetIndex) -> EngineState:
        error = np.full(index.n_sources, 0.2, dtype=float)
        difficulty = np.full(index.n_slots, 0.5, dtype=float)
        belief = np.full(index.n_slots, 0.5, dtype=float)
        fact_voters = index.claims_per_fact
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            # A positive vote on v is correct with prob 1 - error*difficulty;
            # a negative vote (source claimed a sibling) asserts falseness
            # with the same per-vote correctness.
            vote_quality = 1.0 - np.clip(
                error[index.claim_source] * difficulty[index.claim_slot], 0.0, 1.0
            )
            positive = index.sum_per_slot(vote_quality)
            # Negative evidence against v: other voters of the fact.
            fact_quality = index.sum_per_fact(
                1.0 - error[index.claim_source] * 0.5
            )
            negative_votes = (
                fact_voters[index.slot_fact] - index.votes_per_slot
            )
            # Average per-voter quality of the fact, applied to non-claimers.
            mean_quality = fact_quality / np.maximum(fact_voters, 1.0)
            negative = negative_votes * (1.0 - mean_quality[index.slot_fact])
            belief = (positive + negative) / np.maximum(
                fact_voters[index.slot_fact], 1.0
            )
            belief = np.clip(_rescale(belief, self.rescale_strength), 0.0, 1.0)

            # Difficulty: how often trusted voters get this value wrong.
            claimed_belief = belief[index.claim_slot]
            miss = 1.0 - claimed_belief
            safe_error = np.clip(error, _EPSILON, 1.0)
            diff_num = index.sum_per_slot(miss / safe_error[index.claim_source])
            difficulty = np.clip(
                diff_num / np.maximum(index.votes_per_slot, 1.0), _EPSILON, 1.0
            )

            # Error: average miss scaled by value difficulty.
            safe_difficulty = np.clip(difficulty, _EPSILON, 1.0)
            err_num = index.sum_per_source(
                miss / safe_difficulty[index.claim_slot]
            )
            new_error = np.clip(
                err_num / np.maximum(index.claims_per_source, 1.0), _EPSILON, 1.0
            )
            if self.criterion.converged(error, new_error):
                error = new_error
                break
            error = new_error
        return EngineState(
            slot_confidence=belief,
            source_trust=1.0 - error,
            iterations=iterations,
        )
