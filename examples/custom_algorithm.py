"""Extend the library: write, register and partition a new algorithm.

Implementing a truth discovery algorithm takes one method: subclass
``TruthDiscoveryAlgorithm`` and fill in ``_solve`` against the
flat-array ``DatasetIndex`` API.  The example builds *RecencyVote* — a
toy scheme weighting each source by the inverse of its claim volume
(specialists over firehoses) — registers it by name, and shows that it
immediately composes with everything else: TD-AC wrapping, the
evaluation harness, the Books list-valued corpus.

Run with:  python examples/custom_algorithm.py
"""

import numpy as np

from repro.algorithms import register, create
from repro.algorithms.base import EngineState, TruthDiscoveryAlgorithm
from repro.core import TDAC, TDACConfig
from repro.datasets import load
from repro.evaluation import performance_table, run_algorithm


class SpecialistVote(TruthDiscoveryAlgorithm):
    """One pass: a source's vote weight is 1 / sqrt(claim volume).

    The hypothesis: prolific aggregators syndicate sloppy records, while
    low-volume specialists curate theirs.  (A toy — but a *plausible*
    toy, which is all an extensibility demo needs.)
    """

    name = "SpecialistVote"

    def _solve(self, index):
        volume = np.maximum(index.claims_per_source, 1.0)
        weight = 1.0 / np.sqrt(volume)
        votes = index.slot_scores(weight)
        confidence = index.normalize_per_fact(votes)
        winners = index.winning_slots(votes)
        winner_mask = np.zeros(index.n_slots)
        winner_mask[winners] = 1.0
        trust = index.source_mean_of_slots(winner_mask)
        return EngineState(
            slot_confidence=confidence,
            source_trust=trust,
            iterations=1,
            slot_ranking=votes,
        )


register(SpecialistVote.name, SpecialistVote)

books = load("Books")
ds1 = load("DS1", scale=0.1)

records = []
for dataset in (books, ds1):
    records.append(run_algorithm(create("SpecialistVote"), dataset))
    records.append(run_algorithm(create("MajorityVote"), dataset))
    tdac = TDAC(create("SpecialistVote"), config=TDACConfig(seed=0))
    records.append(run_algorithm(tdac, dataset))

print(performance_table(records, title="A custom algorithm, flat and TD-AC-wrapped"))
print(
    "\nThe new algorithm came from ~20 lines: _solve() over the "
    "DatasetIndex arrays,\nplus register() to make it addressable by name."
)
