"""CRH — Conflict Resolution on Heterogeneous data (Li et al., SIGMOD 2014).

An optimisation-based framework: find truths and source weights
minimising the weighted loss

    sum_s w(s) * sum_f loss(v(s, f), truth(f))

subject to a regularisation on the weights, which yields the closed-form
update ``w(s) = -log(loss(s) / sum_s' loss(s'))``.  For categorical data
the loss is 0/1 disagreement with the current truth, and the truth
update is a weighted majority vote — giving a simple, fast fixed point
that behaves very differently from the Bayesian family (no copy
detection, purely loss-driven weights).

Part of the extended comparison set (the paper's future-work item of
comparing against "a larger set of standard truth discovery
algorithms").
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EngineState, TruthDiscoveryAlgorithm
from repro.algorithms.convergence import ConvergenceCriterion
from repro.data.index import DatasetIndex

_LOSS_FLOOR = 1e-6


class CRH(TruthDiscoveryAlgorithm):
    """Loss-minimisation truth discovery with log-ratio source weights.

    Parameters
    ----------
    tolerance / max_iterations:
        Stopping controls on the source-weight fixed point.
    """

    name = "CRH"

    def __init__(
        self, tolerance: float = 1e-4, max_iterations: int = 20
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.criterion = ConvergenceCriterion(tolerance, measure="max_change")
        self.max_iterations = max_iterations

    def _solve(self, index: DatasetIndex) -> EngineState:
        weights = np.ones(index.n_sources, dtype=float)
        votes = index.votes_per_slot
        winners = index.winning_slots(votes)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            # Truth update: weighted vote under the current weights.
            votes = index.slot_scores(weights)
            winners = index.winning_slots(votes)
            # Loss of every source: fraction of its claims disagreeing
            # with the current truths.
            claim_wrong = (
                winners[index.claim_fact] != index.claim_slot
            ).astype(float)
            losses = index.sum_per_source(claim_wrong)
            counts = np.maximum(index.claims_per_source, 1.0)
            losses = np.maximum(losses / counts, _LOSS_FLOOR)
            total = losses.sum()
            new_weights = -np.log(losses / max(total, _LOSS_FLOOR))
            new_weights = np.clip(new_weights, _LOSS_FLOOR, None)
            scale = new_weights.max()
            if scale > 0:
                new_weights = new_weights / scale
            if self.criterion.converged(weights, new_weights):
                weights = new_weights
                break
            weights = new_weights
        votes = index.slot_scores(weights)
        confidence = index.normalize_per_fact(votes)
        return EngineState(
            slot_confidence=confidence,
            source_trust=weights,
            iterations=iterations,
            slot_ranking=votes,
        )
