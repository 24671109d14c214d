"""SimpleLCA — Latent Credibility Analysis (Pasternack & Roth, WWW 2013).

A proper generative model: each source ``s`` has an honesty ``H(s)``;
given the (latent) truth of a fact with ``m`` candidate values, ``s``
asserts the truth with probability ``H(s)`` and any specific wrong
candidate with probability ``(1 - H(s)) / (m - 1)``.  EM alternates:

* **E-step** — posterior belief of every candidate value given the
  current honesties (a per-fact soft-max over log-likelihoods);
* **M-step** — each source's honesty becomes the mean posterior belief
  of the values it asserted.

Unlike the heuristic fixed points (Sums, TruthFinder), LCA's updates
are exact EM on an explicit likelihood, so each iteration provably does
not decrease it.  Part of the extended comparison suite.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EngineState, TruthDiscoveryAlgorithm
from repro.algorithms.convergence import ConvergenceCriterion
from repro.data.index import DatasetIndex

_HONESTY_EPSILON = 1e-4


class SimpleLCA(TruthDiscoveryAlgorithm):
    """EM over the single-honesty-per-source credibility model.

    Parameters
    ----------
    initial_honesty:
        Starting honesty of every source, in (0, 1).
    tolerance / max_iterations:
        Stopping controls on the honesty fixed point.
    """

    name = "SimpleLCA"

    def __init__(
        self,
        initial_honesty: float = 0.8,
        tolerance: float = 1e-4,
        max_iterations: int = 30,
    ) -> None:
        if not 0.0 < initial_honesty < 1.0:
            raise ValueError("initial_honesty must be in (0, 1)")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.initial_honesty = initial_honesty
        self.criterion = ConvergenceCriterion(tolerance, measure="max_change")
        self.max_iterations = max_iterations

    def _solve(self, index: DatasetIndex) -> EngineState:
        honesty = np.full(index.n_sources, self.initial_honesty, dtype=float)
        # Number of candidate values of every fact, >= 1.
        m = np.maximum(index.slots_per_fact, 1.0)
        wrong_denominator = np.maximum(m - 1.0, 1.0)[index.claim_fact]
        belief = index.normalize_per_fact(index.votes_per_slot)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            h = np.clip(honesty, _HONESTY_EPSILON, 1.0 - _HONESTY_EPSILON)
            log_h = np.log(h)
            log_wrong_claim = np.log(1.0 - h)[index.claim_source] - np.log(
                wrong_denominator
            )
            # log-likelihood of slot v being the truth:
            #   sum over claimers of v of log H(s)
            # + sum over the fact's OTHER claimers of log((1-H)/ (m-1)).
            claim_log_h = log_h[index.claim_source]
            support = index.sum_per_slot(claim_log_h)
            fact_wrong_total = index.sum_per_fact(log_wrong_claim)
            slot_wrong = index.sum_per_slot(log_wrong_claim)
            log_likelihood = (
                support + fact_wrong_total[index.slot_fact] - slot_wrong
            )
            belief = index.softmax_per_fact(log_likelihood)
            new_honesty = index.source_mean_of_slots(belief)
            new_honesty = np.clip(
                new_honesty, _HONESTY_EPSILON, 1.0 - _HONESTY_EPSILON
            )
            if self.criterion.converged(honesty, new_honesty):
                honesty = new_honesty
                break
            honesty = new_honesty
        return EngineState(
            slot_confidence=belief,
            source_trust=honesty,
            iterations=iterations,
        )
