"""End-to-end integration tests across modules.

These are the system-level guarantees the unit tests cannot give: the
full TD-AC pipeline on generated data recovers planted structure, beats
the flat baselines where the paper says it should, and every serialised
artefact survives a round trip through the evaluation stack.
"""

import pytest

from repro import Accu, AccuGenPartition, MajorityVote, TDAC, TDACConfig
from repro.data import load_json, save_json
from repro.datasets import load, make_synthetic, planted_partition
from repro.evaluation import record_from_result, run_algorithm
from repro.metrics import evaluate_predictions, is_refinement


@pytest.mark.slow
class TestSyntheticPipeline:
    @pytest.mark.parametrize("name", ["DS1", "DS2", "DS3"])
    def test_tdac_beats_flat_accu(self, name):
        dataset = load(name, scale=0.1)
        flat = run_algorithm(Accu(), dataset)
        tdac = run_algorithm(TDAC(Accu(), config=TDACConfig(seed=0)), dataset)
        assert tdac.accuracy >= flat.accuracy - 1e-9

    def test_tdac_respects_planted_structure_on_ds3(self):
        generated = make_synthetic("DS3", n_objects=100, seed=0)
        outcome = TDAC(Accu(), config=TDACConfig(seed=0)).run(generated.dataset)
        planted = planted_partition("DS3")
        assert is_refinement(planted, outcome.partition) or is_refinement(
            outcome.partition, planted
        )

    def test_tdac_matches_oracle_partition_quality(self):
        dataset = load("DS1", scale=0.04)
        oracle = AccuGenPartition(Accu(), "oracle").run(dataset)
        tdac = TDAC(Accu(), config=TDACConfig(seed=0)).run(dataset)
        oracle_acc = evaluate_predictions(dataset, oracle.predictions).accuracy
        tdac_acc = evaluate_predictions(dataset, tdac.predictions).accuracy
        assert tdac_acc >= oracle_acc - 0.05


class TestRoundTrips:
    def test_generated_dataset_survives_json(self, tmp_path, small_ds1):
        path = tmp_path / "ds1.json"
        save_json(small_ds1.dataset, path)
        restored = load_json(path)
        original = MajorityVote().discover(small_ds1.dataset)
        replayed = MajorityVote().discover(restored)
        assert original.predictions == replayed.predictions

    def test_record_from_tdac_result(self, small_ds1):
        outcome = TDAC(MajorityVote(), config=TDACConfig(seed=0)).run(small_ds1.dataset)
        record = record_from_result(
            small_ds1.dataset, outcome.result, outcome.partition
        )
        assert record.partition == outcome.partition
        assert record.algorithm == "TD-AC (F=MajorityVote)"


@pytest.mark.slow
class TestRealDataPipeline:
    def test_exam_pipeline(self):
        dataset = load("Exam 32")
        record = run_algorithm(TDAC(Accu(), config=TDACConfig(seed=0)), dataset)
        assert record.accuracy > 0.6

    def test_flights_pipeline(self):
        dataset = load("Flights", scale=0.3)
        flat = run_algorithm(Accu(), dataset)
        tdac = run_algorithm(TDAC(Accu(), config=TDACConfig(seed=0)), dataset)
        assert tdac.accuracy >= flat.accuracy - 0.07
