"""Web data integration: fuse conflicting stock quotes and flight data.

The motivating workload of deep-web truth discovery (Li et al., VLDB'12,
simulated here): dozens of financial sites serve the same hundred
tickers, and flight trackers recycle each other's stale estimates.
Sources are good on some attribute groups (prices, schedules) and poor
on others (fundamentals, actual times) — running one reliability score
per source across all attributes washes that structure out, and TD-AC
restores it.

Run with:  python examples/web_integration.py
"""

from repro import Accu, TDAC, TDACConfig
from repro.datasets import make_flights, make_stocks
from repro.evaluation import performance_table, run_algorithm
from repro.metrics import compare_partitions

for generated, label in (
    (make_stocks(seed=0), "Stocks"),
    (make_flights(seed=0), "Flights"),
):
    dataset = generated.dataset
    records = [
        run_algorithm(Accu(), dataset),
        run_algorithm(TDAC(Accu(), config=TDACConfig(seed=0)), dataset),
    ]
    print(performance_table(records, title=f"=== {label} ==="))

    outcome = TDAC(Accu(), config=TDACConfig(seed=0)).run(dataset)
    from repro.core import Partition

    planted = Partition.from_blocks(generated.planted_groups)
    agreement = compare_partitions(planted, outcome.partition)
    print(f"planted grouping : {planted}")
    print(f"TD-AC grouping   : {outcome.partition}")
    print(
        f"agreement        : exact={agreement.exact} "
        f"rand={agreement.rand:.2f} ARI={agreement.adjusted_rand:.2f}\n"
    )
