"""Base truth discovery algorithms.

The paper evaluates MajorityVote, TruthFinder, DEPEN, Accu and AccuSim;
this package implements those five plus the extended comparison set it
lists as future work (Sums, AverageLog, Investment, PooledInvestment,
2-Estimates, 3-Estimates, CRH, CATD, SimpleLCA).  All algorithms share the
:class:`~repro.algorithms.base.TruthDiscoveryAlgorithm` interface and can
serve as the base algorithm ``F`` of TD-AC.
"""

from repro.algorithms.accu import Accu, AccuSim, CopyDetector, Depen
from repro.algorithms.catd import CATD
from repro.algorithms.continuous import (
    ContinuousCATD,
    ContinuousCRH,
    ContinuousMedian,
)
from repro.algorithms.crh import CRH
from repro.algorithms.base import (
    EngineState,
    TruthDiscoveryAlgorithm,
    TruthDiscoveryResult,
)
from repro.algorithms.convergence import ConvergenceCriterion
from repro.algorithms.estimates import ThreeEstimates, TwoEstimates
from repro.algorithms.investment import Investment, PooledInvestment
from repro.algorithms.lca import SimpleLCA
from repro.algorithms.majority import MajorityVote
from repro.algorithms.registry import (
    available,
    capability_gap,
    create,
    register,
)
from repro.algorithms.routing import TypeRouted
from repro.algorithms.similarity import (
    SlotSimilarity,
    levenshtein_distance,
    numeric_similarity,
    sequence_similarity,
    string_similarity,
    value_similarity,
)
from repro.algorithms.sums import AverageLog, Sums
from repro.algorithms.truthfinder import TruthFinder

__all__ = [
    "Accu",
    "AccuSim",
    "AverageLog",
    "CATD",
    "CRH",
    "ContinuousCATD",
    "ContinuousCRH",
    "ContinuousMedian",
    "ConvergenceCriterion",
    "CopyDetector",
    "Depen",
    "EngineState",
    "Investment",
    "MajorityVote",
    "PooledInvestment",
    "SimpleLCA",
    "SlotSimilarity",
    "Sums",
    "ThreeEstimates",
    "TruthDiscoveryAlgorithm",
    "TruthDiscoveryResult",
    "TruthFinder",
    "TwoEstimates",
    "TypeRouted",
    "available",
    "capability_gap",
    "create",
    "levenshtein_distance",
    "numeric_similarity",
    "register",
    "sequence_similarity",
    "string_similarity",
    "value_similarity",
]
