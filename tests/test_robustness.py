"""Failure-injection and adversarial-input robustness tests.

Inputs that production corpora will throw at the library sooner or
later: unicode identifiers, enormous value strings, single-source
datasets, facts whose truth nobody claims, thousand-way conflicts, and
empty-overlap restrictions.
"""

import pytest

from repro.algorithms import (
    Accu,
    MajorityVote,
    TruthFinder,
    available,
    capability_gap,
    create,
)
from repro.core import TDAC, TDACConfig
from repro.data import DataError, DatasetBuilder, Fact
from repro.metrics import evaluate_predictions


class TestExoticIdentifiers:
    def test_unicode_everywhere(self):
        builder = DatasetBuilder(name="unicode")
        builder.add_claim("søurce-1", "объект", "属性", "värde-α")
        builder.add_claim("søurce-2", "объект", "属性", "värde-β")
        builder.add_claim("søurce-3", "объект", "属性", "värde-α")
        builder.set_truth("объект", "属性", "värde-α")
        dataset = builder.build()
        result = MajorityVote().discover(dataset)
        assert result.predictions[Fact("объект", "属性")] == "värde-α"
        report = evaluate_predictions(dataset, result.predictions)
        assert report.accuracy == 1.0

    def test_huge_value_strings(self):
        long_a = "a" * 5000
        long_b = "b" * 5000
        builder = DatasetBuilder()
        builder.add_claim("s1", "o", "a", long_a)
        builder.add_claim("s2", "o", "a", long_a)
        builder.add_claim("s3", "o", "a", long_b)
        # TruthFinder runs the similarity kernel over these monsters.
        result = TruthFinder().discover(builder.build())
        assert result.predictions[Fact("o", "a")] == long_a

    def test_mixed_value_types_in_one_fact(self):
        builder = DatasetBuilder()
        builder.add_claim("s1", "o", "a", 42)
        builder.add_claim("s2", "o", "a", "42")
        builder.add_claim("s3", "o", "a", (4, 2))
        builder.add_claim("s4", "o", "a", 42)
        result = TruthFinder().discover(builder.build())
        assert result.predictions[Fact("o", "a")] == 42


class TestDegenerateShapes:
    def test_single_source(self):
        builder = DatasetBuilder()
        for i in range(5):
            builder.add_claim("solo", f"o{i}", "a", f"v{i}")
        result = Accu().discover(builder.build())
        assert len(result.predictions) == 5

    def test_single_fact_many_sources(self):
        builder = DatasetBuilder()
        for i in range(300):
            builder.add_claim(f"s{i}", "o", "a", f"v{i % 7}")
        for i in range(300, 310):
            builder.add_claim(f"s{i}", "o", "a", "v0")  # strict winner
        result = Accu().discover(builder.build())
        assert result.predictions[Fact("o", "a")] == "v0"

    def test_thousand_way_conflict(self):
        builder = DatasetBuilder()
        for i in range(500):
            builder.add_claim(f"s{i}", "o", "a", f"unique-{i}")
        builder.add_claim("s500", "o", "a", "unique-0")
        result = MajorityVote().discover(builder.build())
        assert result.predictions[Fact("o", "a")] == "unique-0"

    def test_all_algorithms_survive_two_claims(self):
        builder = DatasetBuilder()
        builder.add_claim("s1", "o", "a", 1)
        builder.add_claim("s2", "o", "a", 2)
        dataset = builder.build()
        for name in available():
            algorithm = create(name)
            if capability_gap(algorithm, dataset) is not None:
                # Continuous estimators on an (untyped, hence
                # categorical) corpus; their runner-facing contract is
                # to be skipped, and their estimate may legitimately be
                # off the claim universe (a weighted mean).
                continue
            result = algorithm.discover(dataset)
            assert result.predictions[Fact("o", "a")] in (1, 2), name


class TestUnreachableTruth:
    def test_evaluation_handles_never_claimed_truth(self):
        builder = DatasetBuilder()
        builder.add_claim("s1", "o", "a", "x")
        builder.add_claim("s2", "o", "a", "y")
        builder.set_truth("o", "a", "z")  # nobody claims it
        dataset = builder.build()
        result = MajorityVote().discover(dataset)
        report = evaluate_predictions(dataset, result.predictions)
        assert report.precision == 0.0
        assert report.counts.false_negatives == 0

    def test_tdac_runs_with_partial_truth(self):
        builder = DatasetBuilder()
        for obj in ("o1", "o2", "o3"):
            for attr in ("a1", "a2", "a3", "a4"):
                for s in ("s1", "s2", "s3"):
                    builder.add_claim(s, obj, attr, f"{s}-{obj}-{attr}")
        builder.set_truth("o1", "a1", "s1-o1-a1")  # only one fact labelled
        outcome = TDAC(MajorityVote(), config=TDACConfig(seed=0)).run(builder.build())
        assert len(outcome.predictions) == 12


class TestRestrictionEdgeCases:
    def test_empty_restriction_yields_empty_discovery(self):
        builder = DatasetBuilder()
        builder.add_claim("s1", "o", "a", 1)
        dataset = builder.build()
        empty = dataset.restrict_attributes([])
        assert empty.attributes == ()
        assert empty.n_claims == 0
        result = MajorityVote().discover(empty)
        assert result.predictions == {}

    def test_sources_without_claims_get_zero_trust(self):
        builder = DatasetBuilder()
        builder.declare_sources(["ghost", "s1", "s2"])
        builder.add_claim("s1", "o", "a", 1)
        builder.add_claim("s2", "o", "a", 1)
        result = Accu().discover(builder.build())
        assert "ghost" in result.source_trust
