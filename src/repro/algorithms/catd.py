"""CATD — Confidence-Aware Truth Discovery (Li et al., VLDB 2015).

Designed for the long tail: sources with very few claims get unstable
reliability estimates, so CATD weights each source by the *upper bound*
of the confidence interval of its error rate instead of the point
estimate — ``w(s) = chi2.ppf(alpha/2, n_s) / loss(s)`` in the original
formulation, where few observations widen the interval and shrink the
weight.  Truths are then weighted votes, iterated to a fixed point.

scipy's chi-squared quantile supplies the interval bound, making this
the one algorithm in the library exercising the scipy.stats substrate.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EngineState, TruthDiscoveryAlgorithm
from repro.algorithms.convergence import ConvergenceCriterion
from repro.data.index import DatasetIndex

_LOSS_FLOOR = 1e-6


class CATD(TruthDiscoveryAlgorithm):
    """Confidence-interval-weighted truth discovery for long-tail sources.

    Parameters
    ----------
    significance:
        The ``alpha`` of the chi-squared interval; smaller values punish
        low-volume sources harder.
    tolerance / max_iterations:
        Stopping controls on the weight fixed point.
    """

    name = "CATD"

    def __init__(
        self,
        significance: float = 0.05,
        tolerance: float = 1e-4,
        max_iterations: int = 20,
    ) -> None:
        if not 0.0 < significance < 1.0:
            raise ValueError("significance must be in (0, 1)")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.significance = significance
        self.criterion = ConvergenceCriterion(tolerance, measure="max_change")
        self.max_iterations = max_iterations

    def _solve(self, index: DatasetIndex) -> EngineState:
        from scipy import stats  # lazy: keeps scipy.stats out of `import repro`

        counts = np.maximum(index.claims_per_source, 1.0)
        # chi2.ppf(alpha/2, n): the lower quantile of a chi-squared with
        # one degree of freedom per observation — the numerator of the
        # CATD weight.  Constant across iterations.
        interval = stats.chi2.ppf(self.significance / 2.0, df=counts)
        interval = np.maximum(interval, _LOSS_FLOOR)

        weights = np.ones(index.n_sources, dtype=float)
        votes = index.votes_per_slot
        winners = index.winning_slots(votes)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            votes = index.slot_scores(weights)
            winners = index.winning_slots(votes)
            claim_wrong = (
                winners[index.claim_fact] != index.claim_slot
            ).astype(float)
            losses = index.sum_per_source(claim_wrong)
            losses = np.maximum(losses, _LOSS_FLOOR)
            new_weights = interval / losses
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
