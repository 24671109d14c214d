"""Unit tests for the evaluation runner."""

import pytest

from repro.algorithms import MajorityVote
from repro.baselines import AccuGenPartition
from repro.core import TDAC, TDACConfig
from repro.evaluation import (
    PerformanceRecord,
    records_by_algorithm,
    run_algorithm,
    run_suite,
)


class TestRunAlgorithm:
    def test_plain_algorithm_record(self, tiny_dataset):
        record = run_algorithm(MajorityVote(), tiny_dataset)
        assert record.algorithm == "MajorityVote"
        assert record.dataset == "tiny"
        assert record.iterations == 1
        assert record.partition is None
        assert 0.0 <= record.accuracy <= 1.0

    def test_tdac_record_has_partition(self, small_ds1):
        tdac = TDAC(MajorityVote(), config=TDACConfig(seed=0))
        record = run_algorithm(tdac, small_ds1.dataset)
        assert record.partition is not None
        assert record.algorithm.startswith("TD-AC")

    def test_gen_partition_record_has_partition(self, small_ds1):
        baseline = AccuGenPartition(MajorityVote(), "oracle")
        record = run_algorithm(baseline, small_ds1.dataset)
        assert record.partition is not None
        assert "AccuGenPartition" in record.algorithm

    def test_as_row_layout(self, tiny_dataset):
        row = run_algorithm(MajorityVote(), tiny_dataset).as_row()
        assert len(row) == 7
        assert row[0] == "MajorityVote"
        assert isinstance(row[-1], int)


class TestSuite:
    def test_run_suite_order(self, tiny_dataset):
        records = run_suite([MajorityVote(), MajorityVote()], tiny_dataset)
        assert len(records) == 2

    def test_records_by_algorithm(self, tiny_dataset):
        records = run_suite([MajorityVote()], tiny_dataset)
        indexed = records_by_algorithm(records)
        assert set(indexed) == {"MajorityVote"}
        assert isinstance(indexed["MajorityVote"], PerformanceRecord)
