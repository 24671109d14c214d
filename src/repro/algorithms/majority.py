"""Majority voting, the simplest truth discovery baseline.

Every source's vote counts equally; the value claimed by the largest
number of sources wins (ties break toward the value seen first in source
order, which keeps runs deterministic).  Source trust is reported as the
fraction of each source's claims that agree with the elected truths,
which downstream consumers (e.g. partition scoring) can use even though
the vote itself ignores it.
"""

from __future__ import annotations

from repro.algorithms.base import EngineState, TruthDiscoveryAlgorithm
from repro.data.index import DatasetIndex

import numpy as np


class MajorityVote(TruthDiscoveryAlgorithm):
    """One-person-one-vote truth discovery (single pass)."""

    name = "MajorityVote"

    def _solve(self, index: DatasetIndex) -> EngineState:
        votes = index.votes_per_slot
        confidence = index.normalize_per_fact(votes)
        winners = index.winning_slots(votes)
        winner_mask = np.zeros(index.n_slots, dtype=float)
        winner_mask[winners] = 1.0
        trust = index.source_mean_of_slots(winner_mask)
        return EngineState(
            slot_confidence=confidence,
            source_trust=trust,
            iterations=1,
        )
