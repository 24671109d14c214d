"""A-8 — Ablation: claim normalisation on quote-style numeric data.

Real price/sensor corpora split honest votes across near-identical
numbers (10.00 vs 10.01).  This bench generates a stocks-like dataset
with per-claim reporting jitter and measures every stage with and
without :func:`repro.data.normalize.normalize_dataset`, quantifying how
much of the headline accuracy the preprocessing is worth.
"""

from conftest import run_once

from repro.algorithms import Accu, MajorityVote, TruthFinder
from repro.core import TDAC, TDACConfig
from repro.data import normalize_dataset
from repro.datasets import GeneratorConfig, SourceClass, generate
from repro.datasets.engine import noisy_numeric_values
from repro.evaluation import format_table
from repro.metrics import tolerant_fact_accuracy


def quote_dataset(seed=0):
    """Stocks-like numeric corpus with reporting jitter."""
    return generate(
        GeneratorConfig(
            name="Quotes",
            n_objects=60,
            groups=(("bid", "ask", "last"), ("volume", "turnover")),
            classes=(
                SourceClass("feed", 6, (0.95, 0.5), collusion=0.4),
                SourceClass("scraper", 6, (0.55, 0.85), collusion=0.6),
            ),
            pool_size=3,
            value_factory=noisy_numeric_values(3, jitter=0.0008),
            seed=seed,
        )
    ).dataset


def test_normalization_impact(record_artifact, benchmark):
    raw = quote_dataset()

    def sweep():
        normalized, report = normalize_dataset(raw, threshold=0.995)
        rows = []
        for label, dataset in (("raw", raw), ("normalised", normalized)):
            for algorithm in (MajorityVote(), TruthFinder(), Accu(),
                              TDAC(Accu(), config=TDACConfig(seed=0))):
                predictions = (
                    algorithm.run(dataset).predictions
                    if isinstance(algorithm, TDAC)
                    else algorithm.discover(dataset).predictions
                )
                # Tolerance-based correctness: exact matching would count
                # every jittered (but honest) number as wrong on the raw
                # input and make the comparison meaningless.
                accuracy = tolerant_fact_accuracy(
                    dataset, predictions, tolerance=0.995
                )
                rows.append([label, algorithm.name, accuracy])
        return rows, report

    rows, report = run_once(benchmark, sweep)
    table = format_table(
        ["Input", "Algorithm", "Fact accuracy (tolerant)"],
        rows,
        title=(
            "Ablation A-8 (Quotes): claim normalisation "
            f"(merged {report.n_values_merged} values across "
            f"{report.n_facts_touched} facts)"
        ),
    )
    record_artifact("ablation_normalization", table)

    by_key = {(r[0], r[1]): r[2] for r in rows}
    # Normalisation must substantially lift the vote-splitting victims.
    assert by_key[("normalised", "MajorityVote")] >= (
        by_key[("raw", "MajorityVote")]
    )
    assert report.n_values_merged > 0
