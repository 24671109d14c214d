"""E-X1 — Extension: the paper's future-work comparison, realised.

The paper's Section 6 plans a comparison against "a larger set of
standard truth discovery algorithms".  This bench runs the full
registry — the paper's five plus Sums, AverageLog, Investment,
PooledInvestment, 2-Estimates, 3-Estimates, CRH and CATD — on DS1, each
alone and wrapped in TD-AC, producing the table the paper never had
room for.
"""

from conftest import run_once

from repro.algorithms import available, create
from repro.core import TDAC, TDACConfig
from repro.datasets import load
from repro.evaluation import performance_table, run_algorithm


def test_extension_suite(record_artifact, benchmark):
    dataset = load("DS1", scale=0.1)

    def sweep():
        records = []
        for name in available():
            records.append(run_algorithm(create(name), dataset))
            records.append(
                run_algorithm(TDAC(create(name), config=TDACConfig(seed=0)), dataset)
            )
        return records

    records = run_once(benchmark, sweep)
    table = performance_table(
        records,
        title=(
            "Extension: all registered algorithms on DS1, flat vs TD-AC"
        ),
    )
    record_artifact("extension_suite", table)

    # Shape: TD-AC should lift (or at worst preserve) the accuracy of a
    # clear majority of base algorithms on structurally correlated data.
    lifted = 0
    pairs = 0
    by_name = {r.algorithm: r for r in records}
    for name in available():
        flat = by_name[name]
        tdac = by_name[f"TD-AC (F={name})"]
        pairs += 1
        if tdac.accuracy >= flat.accuracy - 1e-9:
            lifted += 1
    assert lifted >= pairs * 0.6
