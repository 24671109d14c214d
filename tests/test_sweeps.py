"""Unit tests for the hyper-parameter sweep harness."""

import pytest

from repro.algorithms import MajorityVote, TruthFinder
from repro.core import TDAC, TDACConfig
from repro.evaluation.sweeps import best_configuration, parameter_grid, sweep


class TestParameterGrid:
    def test_cartesian_product(self):
        grid = parameter_grid({"a": [1, 2], "b": ["x", "y", "z"]})
        assert len(grid) == 6
        assert {"a": 1, "b": "z"} in grid

    def test_empty_grid(self):
        assert parameter_grid({}) == [{}]

    def test_single_axis(self):
        assert parameter_grid({"k": [3]}) == [{"k": 3}]


class TestSweep:
    def test_records_cover_product(self, tiny_dataset):
        records = sweep(
            TruthFinder,
            {"max_iterations": [1, 3], "influence": [0.0, 0.5]},
            [tiny_dataset],
        )
        assert len(records) == 4
        assert all(r.dataset == "tiny" for r in records)
        assert all(0.0 <= r.accuracy <= 1.0 for r in records)

    def test_wrapper_lifts_into_tdac(self, small_ds1):
        records = sweep(
            MajorityVote,
            {},
            [small_ds1.dataset],
            wrapper=lambda base: TDAC(base, config=TDACConfig(seed=0)),
        )
        assert len(records) == 1
        assert records[0].iterations == 1

    def test_label_rendering(self, tiny_dataset):
        records = sweep(TruthFinder, {"influence": [0.5]}, [tiny_dataset])
        assert records[0].label() == "influence=0.5"


class TestBestConfiguration:
    def test_min_max_selection(self, tiny_dataset, small_ds1):
        records = sweep(
            TruthFinder,
            {"influence": [0.0, 0.5]},
            [tiny_dataset, small_ds1.dataset],
        )
        winner = best_configuration(records)
        assert set(winner) == {"influence"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            best_configuration([])
