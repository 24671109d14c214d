"""Additional coverage of evaluation drivers and edge branches."""

import pytest

from repro.algorithms import MajorityVote
from repro.core import TDAC, TDACConfig
from repro.evaluation import (
    PerformanceRecord,
    run_algorithm,
    table4_experiment,
)


def test_table4_reuses_dataset_when_scales_match():
    # gen_partition_scale == scale takes the no-reload path.
    records = table4_experiment(
        "DS3", scale=0.015, gen_partition_scale=0.015
    )
    assert sum("AccuGenPartition" in r.algorithm for r in records) == 3


def test_performance_record_fields(small_ds1):
    tdac = TDAC(MajorityVote(), config=TDACConfig(seed=0))
    record = run_algorithm(tdac, small_ds1.dataset)
    assert isinstance(record, PerformanceRecord)
    assert record.fact_accuracy == pytest.approx(record.fact_accuracy)
    assert 0 <= record.fact_accuracy <= 1
    assert record.dataset == small_ds1.dataset.name


def test_record_rounding_in_rows(small_ds1):
    record = run_algorithm(MajorityVote(), small_ds1.dataset)
    row = record.as_row()
    # Rounded to 3 decimals in the table row.
    assert row[1] == round(record.precision, 3)
    assert row[5] == round(record.elapsed_seconds, 3)
