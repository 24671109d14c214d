"""Perf harness for the partition-selection hot path.

Times every stage of one TD-AC pass — reference run, truth-vector
build, pairwise distance matrix, k-sweep, per-block runs — and emits the
result as ``BENCH_partition_select.json`` so future PRs have a wall-time
trajectory to regress against.  The *partition-selection stage* (what
Algorithm 1 adds on top of one base run: vector build + distances +
sweep) is reported separately; that is the quantity TD-AC's efficiency
claim over the Bell-number brute force rests on.

Two entry points:

* standalone — ``python benchmarks/bench_partition_select.py --config
  smoke`` (the ``make bench-smoke`` target); ``--baseline FILE`` merges
  an externally measured record (e.g. from a pre-optimization commit)
  into the emitted JSON and reports the speedup;
* pytest — collected with the rest of the bench suite, runs the smoke
  config and asserts the JSON artefact is produced.

Stage timings are min-of-``--repeat`` to damp scheduler noise.  Since
the observability layer landed, the stages come from the span tracer of
:mod:`repro.observability` — one traced ``TDAC.run`` per repeat instead
of ad-hoc ``perf_counter`` bookkeeping around hand-copied pipeline
fragments — while the emitted JSON keeps the same ``stages_seconds``
schema (``sweep`` still covers distances + k-means grid + scoring, and
``total`` is still the sum of the four top-level stages).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.algorithms import Accu
from repro.core import TDAC, TDACConfig
from repro.observability import SpanTracer, activate

CONFIGS = {
    # The smallest config: fast enough for `make bench-smoke` / CI.
    "smoke": {"dataset": "DS2", "scale": 0.05},
    # The largest config of bench_ablation_scaling.py, the reference
    # point for cross-PR perf comparisons.
    "scaling-largest": {"dataset": "DS2", "scale": 0.4},
}

DEFAULT_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_partition_select.json"


def measure(
    dataset_name: str,
    scale: float,
    seed: int = 0,
    n_jobs: int = 1,
    backend: str = "threads",
    sparse: str | bool = "auto",
    repeat: int = 3,
) -> dict:
    """Stage wall times (seconds, min over ``repeat`` runs) for one config.

    Each repeat is one traced ``TDAC.run``; the per-stage numbers are
    read off the tracer's top-level spans, so the bench measures exactly
    the pipeline users run (and inherits its retry/fallback behaviour)
    instead of a hand-copied re-enactment.
    """
    from repro.datasets import load

    best: dict[str, float] = {}
    partition = None
    counters: dict[str, int] = {}
    for _ in range(max(repeat, 1)):
        dataset = load(dataset_name, scale=scale)
        config = TDACConfig(
            seed=seed, n_jobs=n_jobs, backend=backend, sparse=sparse
        )
        tdac = TDAC(Accu(), config=config)
        tracer = SpanTracer()
        with activate(tracer):
            partition = tdac.run(dataset).partition
        spans = tracer.stage_seconds()
        counters = dict(tracer.counters)

        stage_reference = spans.get("reference", 0.0)
        stage_vectors = spans.get("truth_vectors", 0.0)
        stage_distance = spans.get("distance_matrix", 0.0)
        # Same aggregate the pre-tracer bench reported: the sweep stage
        # covers distances + k-means grid + silhouette scoring.
        stage_sweep = (
            stage_distance
            + spans.get("k_sweep", 0.0)
            + spans.get("silhouette_scoring", 0.0)
        )
        stage_blocks = spans.get("block_runs", 0.0)

        stages = {
            "reference": stage_reference,
            "vector_build": stage_vectors,
            "distance_matrix": stage_distance,
            "sweep": stage_sweep,
            "block_runs": stage_blocks,
            "merge": spans.get("merge", 0.0),
            "partition_select_stage": stage_vectors + stage_sweep,
            "total": stage_reference + stage_vectors + stage_sweep + stage_blocks,
        }
        for name, seconds in stages.items():
            best[name] = min(best.get(name, float("inf")), seconds)
    return {
        "dataset": dataset_name,
        "scale": scale,
        "seed": seed,
        "n_jobs": n_jobs,
        "backend": backend,
        "sparse": str(sparse),
        "repeat": repeat,
        "partition": str(partition),
        "stages_seconds": {k: round(v, 6) for k, v in best.items()},
        "counters": counters,
    }


def build_report(
    config: str,
    repeat: int = 3,
    n_jobs: int = 1,
    backend: str = "threads",
    baseline: dict | None = None,
) -> dict:
    parameters = CONFIGS[config]
    record = measure(
        parameters["dataset"],
        parameters["scale"],
        n_jobs=n_jobs,
        backend=backend,
        repeat=repeat,
    )
    report = {"config": config, "optimized": record}
    if baseline is not None:
        report["baseline"] = baseline
        base_stage = baseline.get("stages_seconds", {}).get(
            "partition_select_stage"
        )
        new_stage = record["stages_seconds"]["partition_select_stage"]
        if base_stage:
            report["partition_select_speedup"] = round(base_stage / new_stage, 2)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", choices=sorted(CONFIGS), default="smoke")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--n-jobs", type=int, default=1)
    parser.add_argument("--backend", choices=["threads", "processes"], default="threads")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="JSON file with a pre-optimization measurement to merge",
    )
    args = parser.parse_args(argv)

    baseline = None
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())
    report = build_report(
        args.config,
        repeat=args.repeat,
        n_jobs=args.n_jobs,
        backend=args.backend,
        baseline=baseline,
    )
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {args.output}")
    return 0


def test_partition_select_bench(record_artifact, benchmark, tmp_path):
    """Bench-suite entry: smoke config must produce the JSON artefact."""
    from conftest import run_once

    output = tmp_path / "BENCH_partition_select.json"
    run_once(benchmark, main, ["--config", "smoke", "--repeat", "1", "--output", str(output)])
    assert output.is_file(), "bench failed to emit BENCH_partition_select.json"
    report = json.loads(output.read_text())
    stages = report["optimized"]["stages_seconds"]
    for stage in (
        "reference",
        "vector_build",
        "distance_matrix",
        "sweep",
        "block_runs",
        "partition_select_stage",
    ):
        assert stage in stages, stage
    record_artifact(
        "partition_select_bench", json.dumps(report, indent=2, sort_keys=True)
    )


if __name__ == "__main__":
    sys.exit(main())
