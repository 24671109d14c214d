"""Unit tests for dataset subsampling utilities."""

import pytest

from repro.data import data_coverage_rate, thin_coverage
from repro.datasets import make_synthetic


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic("DS1", n_objects=40, seed=4).dataset


class TestThinCoverage:
    def test_reduces_claims(self, dataset):
        thinned = thin_coverage(dataset, 0.5, seed=0)
        assert thinned.n_claims < dataset.n_claims
        assert thinned.n_claims >= int(0.35 * dataset.n_claims)

    def test_facts_preserved(self, dataset):
        thinned = thin_coverage(dataset, 0.1, seed=0)
        assert set(thinned.facts) == set(dataset.facts)

    def test_coverage_rate_drops(self, dataset):
        thinned = thin_coverage(dataset, 0.4, seed=0)
        assert data_coverage_rate(thinned) < data_coverage_rate(dataset)

    def test_keep_all_is_identity_sized(self, dataset):
        same = thin_coverage(dataset, 1.0, seed=0)
        assert same.n_claims == dataset.n_claims

    def test_truth_carried(self, dataset):
        thinned = thin_coverage(dataset, 0.5, seed=0)
        assert thinned.truth == dataset.truth

    def test_fraction_validated(self, dataset):
        with pytest.raises(ValueError):
            thin_coverage(dataset, 0.0)
        with pytest.raises(ValueError):
            thin_coverage(dataset, 1.5)

    def test_deterministic(self, dataset):
        a = thin_coverage(dataset, 0.5, seed=7)
        b = thin_coverage(dataset, 0.5, seed=7)
        assert list(a.iter_claims()) == list(b.iter_claims())
