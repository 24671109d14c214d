"""E-X1 — Extension: the paper's future-work comparison, realised.

The paper's Section 6 plans a comparison against "a larger set of
standard truth discovery algorithms".  This bench runs the full
registry — the paper's five plus Sums, AverageLog, Investment,
PooledInvestment, 2-Estimates, 3-Estimates, CRH and CATD — on DS1, each
alone and wrapped in TD-AC, producing the table the paper never had
room for.  Algorithms that cannot read DS1's categorical claims (the
continuous estimators) are skipped with their capability-gap reason,
as the leaderboard does, following the Waguih & Berti-Équille protocol
of running each algorithm only on data it is defined for.
"""

from conftest import run_once

from repro.datasets import load
from repro.evaluation import performance_table
from repro.evaluation.leaderboard import suite_records


def test_extension_suite(record_artifact, benchmark):
    dataset = load("DS1", scale=0.1)
    skipped = []
    records = run_once(benchmark, suite_records, dataset, skipped=skipped)
    table = performance_table(
        records,
        title=(
            "Extension: all registered algorithms on DS1, flat vs TD-AC"
        ),
    )
    notes = "".join(
        f"\nskipped {s.algorithm}: {s.reason}" for s in skipped
    )
    record_artifact("extension_suite", table + notes)

    # Shape: TD-AC should lift (or at worst preserve) the accuracy of a
    # clear majority of base algorithms on structurally correlated data.
    lifted = 0
    pairs = 0
    by_name = {r.algorithm: r for r in records}
    # Records alternate flat / TD-AC for each algorithm that ran.
    for name in (r.algorithm for r in records[::2]):
        flat = by_name[name]
        tdac = by_name[f"TD-AC (F={name})"]
        pairs += 1
        if tdac.accuracy >= flat.accuracy - 1e-9:
            lifted += 1
    assert lifted >= pairs * 0.6
