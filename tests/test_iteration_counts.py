"""Sanity checks on the #Iteration column of the paper's tables.

The paper reports iteration counts per algorithm (single-pass majority
voting, a handful of TruthFinder rounds, more for the Accu family, and
always exactly 1 for TD-AC's partition-then-solve).  These tests pin the
column's behaviour rather than exact values.
"""

import pytest

from repro.algorithms import Accu, Depen, MajorityVote, TruthFinder
from repro.core import TDAC, TDACConfig
from repro.datasets import make_synthetic


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic("DS2", n_objects=40, seed=3).dataset


class TestIterationColumn:
    def test_majority_vote_is_single_pass(self, dataset):
        assert MajorityVote().discover(dataset).iterations == 1

    def test_iterative_algorithms_do_iterate(self, dataset):
        for algorithm in (TruthFinder(tolerance=1e-8), Depen(), Accu()):
            result = algorithm.discover(dataset)
            assert result.iterations >= 2, algorithm.name

    def test_iterations_bounded_by_max(self, dataset):
        result = Accu(max_iterations=4).discover(dataset)
        assert result.iterations <= 4

    def test_tdac_reports_one_iteration(self, dataset):
        # Tables 4, 6, 7 and 9 all report TD-AC with #Iteration = 1.
        result = TDAC(Accu(), config=TDACConfig(seed=0)).discover(dataset)
        assert result.iterations == 1

    def test_tighter_tolerance_never_fewer_iterations(self, dataset):
        loose = Accu(tolerance=1e-1).discover(dataset)
        tight = Accu(tolerance=1e-6).discover(dataset)
        assert tight.iterations >= loose.iterations
