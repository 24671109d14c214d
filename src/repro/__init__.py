"""repro — a full reproduction of *TD-AC: Efficient Data Partitioning
based Truth Discovery* (Tossou & Ba, EDBT 2021).

The package implements the paper's contribution and every substrate it
depends on, from scratch:

* :mod:`repro.data` — the (sources, attributes, objects, claims) data
  model with ground truth, IO and statistics;
* :mod:`repro.algorithms` — MajorityVote, TruthFinder, DEPEN, Accu,
  AccuSim and six further standard truth discovery algorithms;
* :mod:`repro.clustering` — k-means, silhouette, distances and
  k-selection, built without scikit-learn;
* :mod:`repro.core` — attribute truth vectors, partitions, and the TD-AC
  algorithm itself;
* :mod:`repro.baselines` — the brute-force AccuGenPartition baseline;
* :mod:`repro.datasets` — generators for every evaluation dataset;
* :mod:`repro.metrics` / :mod:`repro.evaluation` — the paper's metrics
  and table harness, plus set-based and tolerance scoring for typed
  corpora;
* :mod:`repro.scenarios` — seeded adversarial workload generators
  (copying cliques, reliability drift, late arrival) and the
  degradation sweep/leaderboard;
* :mod:`repro.observability` — span tracing and structured run reports
  for every pipeline stage;
* :mod:`repro.serving` — the long-lived :class:`TruthService`:
  micro-batched ingests, versioned snapshots, backpressure; plus the
  multi-tenant :class:`TenantRegistry` behind the ``tdac-serve/v1``
  wire schema;
* :mod:`repro.store` — durable claim WAL, versioned snapshot
  checkpoints and crash recovery for the serving layer.

Quickstart::

    from repro import TDAC, TDACConfig, Accu, datasets

    dataset = datasets.load("DS1", scale=0.1)
    outcome = TDAC(Accu(), config=TDACConfig(seed=0)).run(dataset)
    print(outcome.partition)            # the attribute clusters found
    print(outcome.result.predictions)   # fact -> resolved truth

Serving::

    from repro import Accu, TruthService

    with TruthService(Accu(), dataset) as service:
        service.ingest(new_claims, wait=True)
        print(service.query("paris", "temp").value)
"""

from repro import (
    algorithms,
    baselines,
    clustering,
    core,
    data,
    datasets,
    evaluation,
    metrics,
    observability,
    scenarios,
    serving,
    store,
)
from repro.algorithms import (
    CATD,
    CRH,
    Accu,
    SimpleLCA,
    AccuSim,
    AverageLog,
    ContinuousCATD,
    ContinuousCRH,
    ContinuousMedian,
    Depen,
    Investment,
    MajorityVote,
    PooledInvestment,
    Sums,
    ThreeEstimates,
    TruthDiscoveryAlgorithm,
    TruthDiscoveryResult,
    TruthFinder,
    TwoEstimates,
    TypeRouted,
)
from repro.baselines import AccuGenPartition
from repro.core import (
    RESULT_SCHEMA,
    TDAC,
    IncrementalTDAC,
    Partition,
    TDACConfig,
    TDACResult,
    build_truth_vectors,
)
from repro.data import (
    CATEGORICAL,
    CONTINUOUS,
    MULTI,
    Claim,
    Dataset,
    DatasetBuilder,
    Fact,
)
from repro.scenarios import (
    ScenarioConfig,
    apply_scenario,
    degradation_leaderboard,
    degradation_sweep,
)
from repro.observability import SpanTracer
from repro.serving import (
    AsyncTruthClient,
    SERVE_SCHEMA,
    ServeEnvelope,
    ServiceConfig,
    TenantRegistry,
    TruthServer,
    TruthService,
    TruthSnapshot,
    serve_envelope_from_dict,
)
from repro.store import TruthStore

__version__ = "1.24.0"

#: The stable public surface: every name here imports from ``repro``
#: directly and is covered by the API-stability tests.  Additions are
#: allowed; removals or renames require a deprecation cycle (see
#: CHANGELOG.md).
__all__ = [
    "Accu",
    "AccuGenPartition",
    "AccuSim",
    "AsyncTruthClient",
    "AverageLog",
    "CATD",
    "CATEGORICAL",
    "CONTINUOUS",
    "CRH",
    "Claim",
    "ContinuousCATD",
    "ContinuousCRH",
    "ContinuousMedian",
    "Dataset",
    "DatasetBuilder",
    "Depen",
    "Fact",
    "IncrementalTDAC",
    "Investment",
    "MULTI",
    "MajorityVote",
    "Partition",
    "PooledInvestment",
    "RESULT_SCHEMA",
    "SERVE_SCHEMA",
    "ScenarioConfig",
    "ServeEnvelope",
    "ServiceConfig",
    "SimpleLCA",
    "SpanTracer",
    "Sums",
    "TDAC",
    "TDACConfig",
    "TDACResult",
    "TenantRegistry",
    "ThreeEstimates",
    "TruthDiscoveryAlgorithm",
    "TruthDiscoveryResult",
    "TruthFinder",
    "TruthServer",
    "TruthService",
    "TruthSnapshot",
    "TruthStore",
    "TwoEstimates",
    "TypeRouted",
    "__version__",
    "algorithms",
    "apply_scenario",
    "baselines",
    "build_truth_vectors",
    "clustering",
    "core",
    "data",
    "datasets",
    "degradation_leaderboard",
    "degradation_sweep",
    "evaluation",
    "metrics",
    "observability",
    "scenarios",
    "serve_envelope_from_dict",
    "serving",
    "store",
]
