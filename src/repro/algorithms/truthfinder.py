"""TruthFinder (Yin, Han & Yu, TKDE 2008).

A Bayesian-flavoured fixed point between source trustworthiness and value
confidence:

1. trustworthiness score of a source: ``tau(s) = -ln(1 - t(s))`` where
   ``t(s)`` is the current trust (probability that a value from ``s`` is
   correct);
2. raw confidence score of a value: ``sigma(v) = sum of tau(s)`` over the
   sources claiming it;
3. implication adjustment: similar values support each other,
   ``sigma*(v) = sigma(v) + rho * sum sim(v, v') * sigma(v')``;
4. final confidence through a dampened logistic,
   ``s(v) = 1 / (1 + exp(-gamma * sigma*(v)))``;
5. new trust of a source: average confidence of the values it provides.

Iteration stops when the cosine similarity of consecutive trust vectors
changes by less than ``tolerance`` (the criterion of the original paper).
Default hyper-parameters follow Waguih & Berti-Equille's experimental
survey, which the reproduced paper cites for its settings.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EngineState, TruthDiscoveryAlgorithm
from repro.algorithms.convergence import ConvergenceCriterion
from repro.algorithms.similarity import SlotSimilarity
from repro.data.index import DatasetIndex

_TRUST_EPSILON = 1e-6


class TruthFinder(TruthDiscoveryAlgorithm):
    """Iterative trust / confidence fixed point with value implication.

    Parameters
    ----------
    initial_trust:
        Starting trust of every source, in (0, 1).
    dampening:
        The ``gamma`` of the logistic squashing; compensates for the
        false independence assumption between sources.
    influence:
        The ``rho`` weighting how strongly similar values support each
        other; 0 disables the implication adjustment entirely.
    tolerance / max_iterations:
        Stopping controls for the fixed point.
    """

    name = "TruthFinder"

    def __init__(
        self,
        initial_trust: float = 0.9,
        dampening: float = 0.3,
        influence: float = 0.5,
        tolerance: float = 1e-3,
        max_iterations: int = 20,
    ) -> None:
        if not 0.0 < initial_trust < 1.0:
            raise ValueError("initial_trust must be in (0, 1)")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.initial_trust = initial_trust
        self.dampening = dampening
        self.influence = influence
        self.criterion = ConvergenceCriterion(tolerance, measure="cosine")
        self.max_iterations = max_iterations

    def _solve(self, index: DatasetIndex) -> EngineState:
        similarity = SlotSimilarity.shared(index) if self.influence > 0 else None
        trust = np.full(index.n_sources, self.initial_trust, dtype=float)
        confidence = np.zeros(index.n_slots, dtype=float)
        sigma = np.zeros(index.n_slots, dtype=float)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            tau = -np.log(np.clip(1.0 - trust, _TRUST_EPSILON, None))
            sigma = index.slot_scores(tau)
            if similarity is not None:
                sigma = similarity.weighted_support(sigma, self.influence)
            confidence = 1.0 / (1.0 + np.exp(-self.dampening * sigma))
            new_trust = index.source_mean_of_slots(confidence)
            new_trust = np.clip(new_trust, _TRUST_EPSILON, 1.0 - _TRUST_EPSILON)
            if self.criterion.converged(trust, new_trust):
                trust = new_trust
                break
            trust = new_trust
        # The logistic saturates to 1.0 when many sources support a value,
        # erasing the ordering; rank winners by the raw adjusted score.
        return EngineState(
            slot_confidence=confidence,
            source_trust=trust,
            iterations=iterations,
            slot_ranking=sigma,
        )
