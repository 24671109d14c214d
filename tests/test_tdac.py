"""Unit and integration tests for the TD-AC algorithm (Algorithm 1)."""

import pytest

from repro.algorithms import Accu, MajorityVote, TruthFinder
from repro.core import TDAC, TDACConfig, Partition
from repro.data import DatasetBuilder
from repro.datasets import make_synthetic, planted_partition
from repro.metrics import evaluate_predictions, is_refinement


@pytest.fixture(scope="module")
def ds1_run():
    generated = make_synthetic("DS1", n_objects=60, seed=3)
    tdac = TDAC(Accu(), config=TDACConfig(seed=0))
    return generated, tdac.run(generated.dataset)


class TestPartitionSelection:
    def test_recovers_structural_groups(self, ds1_run):
        generated, outcome = ds1_run
        # DS1's planted groups (a3) and (a5) share a reliability profile,
        # so recovery up to merging identical profiles is the best any
        # method can do (the paper's own TD-AC merges them, Table 5).
        planted = planted_partition("DS1")
        assert is_refinement(planted, outcome.partition)

    def test_silhouette_sweep_covers_algorithm1_range(self, ds1_run):
        _, outcome = ds1_run
        n_attributes = 6
        assert set(outcome.silhouette_by_k) == set(range(2, n_attributes))

    def test_best_k_matches_partition(self, ds1_run):
        _, outcome = ds1_run
        assert outcome.best_k == outcome.partition.n_blocks

    def test_chosen_k_has_max_silhouette(self, ds1_run):
        _, outcome = ds1_run
        best = max(outcome.silhouette_by_k.values())
        assert outcome.silhouette_by_k[outcome.best_k] == best


class TestAccuracy:
    def test_tdac_beats_plain_base(self, ds1_run):
        generated, outcome = ds1_run
        dataset = generated.dataset
        plain = Accu().discover(dataset)
        tdac_report = evaluate_predictions(dataset, outcome.predictions)
        plain_report = evaluate_predictions(dataset, plain.predictions)
        assert tdac_report.accuracy >= plain_report.accuracy

    def test_predicts_every_fact(self, ds1_run):
        generated, outcome = ds1_run
        assert set(outcome.predictions) == set(generated.dataset.facts)

    def test_reference_result_carried(self, ds1_run):
        _, outcome = ds1_run
        assert outcome.reference.algorithm == "Accu"
        assert len(outcome.block_results) == outcome.partition.n_blocks


class TestInterface:
    def test_discover_returns_plain_result(self, small_ds1):
        tdac = TDAC(MajorityVote(), config=TDACConfig(seed=0))
        result = tdac.discover(small_ds1.dataset)
        assert result.algorithm == "TD-AC (F=MajorityVote)"
        assert result.iterations == 1
        assert "partition" in result.extras

    def test_separate_reference_algorithm(self, small_ds1):
        tdac = TDAC(MajorityVote(), reference=TruthFinder(), config=TDACConfig(seed=0))
        outcome = tdac.run(small_ds1.dataset)
        assert outcome.reference.algorithm == "TruthFinder"
        assert all(
            r.algorithm == "MajorityVote" for r in outcome.block_results
        )

    def test_masked_distance_mode(self, small_ds1):
        outcome = TDAC(
            MajorityVote(), config=TDACConfig(distance="masked", seed=0)
        ).run(small_ds1.dataset)
        assert outcome.partition.n_blocks >= 2

    def test_parallel_matches_sequential(self, small_ds1):
        dataset = small_ds1.dataset
        sequential = TDAC(
            MajorityVote(), config=TDACConfig(seed=0, n_jobs=1)
        ).run(dataset)
        parallel = TDAC(
            MajorityVote(), config=TDACConfig(seed=0, n_jobs=4)
        ).run(dataset)
        assert sequential.predictions == parallel.predictions
        assert sequential.partition == parallel.partition

    def test_few_attributes_degrades_to_whole(self):
        builder = DatasetBuilder()
        for s in ("s1", "s2", "s3"):
            for a in ("a1", "a2"):
                builder.add_claim(s, "o1", a, f"{s}-{a}")
        outcome = TDAC(MajorityVote(), config=TDACConfig(seed=0)).run(builder.build())
        assert outcome.partition == Partition.whole(("a1", "a2"))
        assert outcome.silhouette_by_k == {}

    def test_k_max_caps_sweep(self, small_ds1):
        tdac = TDAC(MajorityVote(), config=TDACConfig(k_max=3, seed=0))
        outcome = tdac.run(small_ds1.dataset)
        assert max(outcome.silhouette_by_k) == 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="distance"):
            TDAC(MajorityVote(), config=TDACConfig(distance="cosine"))
        with pytest.raises(ValueError, match="k_min"):
            TDAC(MajorityVote(), config=TDACConfig(k_min=1))
        with pytest.raises(ValueError, match="n_jobs"):
            TDAC(MajorityVote(), config=TDACConfig(n_jobs=0))

    def test_name_embeds_base(self):
        assert TDAC(Accu()).name == "TD-AC (F=Accu)"

    def test_deterministic_given_seed(self, small_ds1):
        first = TDAC(MajorityVote(), config=TDACConfig(seed=5)).run(small_ds1.dataset)
        second = TDAC(MajorityVote(), config=TDACConfig(seed=5)).run(small_ds1.dataset)
        assert first.partition == second.partition
        assert first.predictions == second.predictions
