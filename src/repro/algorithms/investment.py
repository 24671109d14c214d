"""Investment and PooledInvestment (Pasternack & Roth, COLING 2010).

A source "invests" its trust uniformly across the claims it makes; a
value's belief grows super-linearly (``G(x) = x ** g``) in the invested
total, and each source earns back belief proportionally to its share of
the investment.  PooledInvestment additionally normalises the grown
belief within each fact's candidate set, which tempers runaway winners.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EngineState, TruthDiscoveryAlgorithm
from repro.algorithms.convergence import ConvergenceCriterion
from repro.data.index import DatasetIndex


class Investment(TruthDiscoveryAlgorithm):
    """Trust-investment fixed point with super-linear belief growth."""

    name = "Investment"
    _pooled = False

    def __init__(
        self,
        growth: float = 1.2,
        tolerance: float = 1e-4,
        max_iterations: int = 20,
    ) -> None:
        if growth <= 0:
            raise ValueError("growth must be positive")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.growth = growth
        self.criterion = ConvergenceCriterion(tolerance, measure="max_change")
        self.max_iterations = max_iterations

    def _solve(self, index: DatasetIndex) -> EngineState:
        counts = np.maximum(index.claims_per_source, 1.0)
        trust = np.ones(index.n_sources, dtype=float)
        belief = np.zeros(index.n_slots, dtype=float)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            per_claim = trust / counts
            invested = index.slot_scores(per_claim)
            safe_invested = np.where(invested > 0, invested, 1.0)
            belief = self._grow(index, invested)
            # Each source earns back belief in proportion to its share of
            # every slot's total investment.
            payout = belief / safe_invested
            new_trust = index.sum_per_source(
                per_claim[index.claim_source] * payout[index.claim_slot]
            )
            trust_max = new_trust.max(initial=0.0)
            if trust_max > 0:
                new_trust = new_trust / trust_max
            if self.criterion.converged(trust, new_trust):
                trust = new_trust
                break
            trust = new_trust
        return EngineState(
            slot_confidence=index.normalize_per_fact(belief),
            source_trust=trust,
            iterations=iterations,
        )

    def _grow(self, index: DatasetIndex, invested: np.ndarray) -> np.ndarray:
        return invested**self.growth


class PooledInvestment(Investment):
    """Investment with per-fact pooling of the grown beliefs."""

    name = "PooledInvestment"

    def _grow(self, index: DatasetIndex, invested: np.ndarray) -> np.ndarray:
        grown = invested**self.growth
        pooled_share = index.normalize_per_fact(grown)
        return invested * pooled_share * index.slots_per_fact[index.slot_fact]
