"""Sums (Hubs & Authorities) and AverageLog (Pasternack & Roth, COLING 2010).

These web-of-trust style algorithms are part of the "larger set of
standard truth discovery algorithms" the reproduced paper lists as a
comparison perspective.  Both iterate a bipartite reinforcement between
sources and claimed values:

* **Sums** — Kleinberg's hubs/authorities on the source–value graph:
  a value's belief is the sum of its providers' trust, a source's trust
  the sum of its values' beliefs, with max-normalisation each round to
  keep the scores from diverging.
* **AverageLog** — dampens prolific sources: trust is the *average*
  belief of provided values scaled by ``log(|claims(s)|)``, so a source
  is not rewarded for volume alone.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EngineState, TruthDiscoveryAlgorithm
from repro.algorithms.convergence import ConvergenceCriterion
from repro.data.index import DatasetIndex


class Sums(TruthDiscoveryAlgorithm):
    """Hubs & Authorities over the source–value bipartite graph."""

    name = "Sums"

    def __init__(self, tolerance: float = 1e-4, max_iterations: int = 20) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.criterion = ConvergenceCriterion(tolerance, measure="max_change")
        self.max_iterations = max_iterations

    def _solve(self, index: DatasetIndex) -> EngineState:
        trust = np.ones(index.n_sources, dtype=float)
        belief = np.zeros(index.n_slots, dtype=float)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            belief = index.slot_scores(trust)
            belief_max = belief.max(initial=0.0)
            if belief_max > 0:
                belief = belief / belief_max
            new_trust = index.sum_per_source(belief[index.claim_slot])
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


class AverageLog(TruthDiscoveryAlgorithm):
    """Sums variant weighting trust by log-claim-count times mean belief."""

    name = "AverageLog"

    def __init__(self, tolerance: float = 1e-4, max_iterations: int = 20) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.criterion = ConvergenceCriterion(tolerance, measure="max_change")
        self.max_iterations = max_iterations

    def _solve(self, index: DatasetIndex) -> EngineState:
        counts = index.claims_per_source
        log_weight = np.log(np.maximum(counts, 1.0))
        # Sources with a single claim would get log(1) = 0 trust forever;
        # give them the minimal positive weight instead.
        log_weight = np.where(counts > 0, np.maximum(log_weight, np.log(2.0) / 2), 0.0)
        trust = np.ones(index.n_sources, dtype=float)
        belief = np.zeros(index.n_slots, dtype=float)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            belief = index.slot_scores(trust)
            belief_max = belief.max(initial=0.0)
            if belief_max > 0:
                belief = belief / belief_max
            new_trust = log_weight * index.source_mean_of_slots(belief)
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
