"""Perf harness for the vectorized claim-index engine.

Measures one traced ``TDAC.run`` twice over the same dataset — once with
the historical per-claim loops patched back in by the test oracles
(``tests.oracles.reference_kernels()``) and once with the vectorized
engine — and emits ``BENCH_base_algorithms.json`` recording
the per-stage wall times and the speedups on the two stages the engine
targets: the ``reference`` pass and the ``block_runs`` fan-out.

The two modes run in the same process on the same loaded dataset, so the
speedup is an apples-to-apples kernel comparison; the harness *asserts*
that both modes produce bit-identical merged results (predictions,
confidences, source trust, partition) before reporting any number.  The
baseline runs first and the global value-similarity cache is cleared
before every timed run, so neither mode inherits the other's warm state.

A per-algorithm section times standalone ``discover`` calls for a
representative slice of the base algorithms under both modes.

Entry points:

* standalone — ``PYTHONPATH=src:. python benchmarks/bench_base_algorithms.py
  --config full`` regenerates the committed artefact (the repository
  root on the path makes ``tests.oracles`` importable); ``--config
  smoke`` is the ``make bench-base`` smoke run;
* pytest — runs the smoke config and asserts the artefact is produced
  and that the identity checks held.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.algorithms import (
    CRH,
    Accu,
    AccuSim,
    Sums,
    TruthFinder,
    similarity,
)
from repro.core import TDAC
from repro.core.config import TDACConfig
from repro.observability import SpanTracer, activate
from tests.oracles import reference_kernels

CONFIGS = {
    # Fast enough for `make bench-base` / CI.
    "smoke": {"dataset": "DS2", "scale": 0.05},
    # The scale of the committed BENCH_base_algorithms.json.
    "full": {"dataset": "DS2", "scale": 0.4},
}

#: Engine-targeted stages; the acceptance criterion is the combined
#: speedup over their sum.
TARGET_STAGES = ("reference", "block_runs")

MICRO_ALGORITHMS = (Accu, AccuSim, TruthFinder, Sums, CRH)

DEFAULT_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_base_algorithms.json"


def _fresh_caches() -> None:
    """Drop warm state that would flatter whichever mode runs second."""
    similarity._cached_pair_similarity.cache_clear()


def _run_traced(dataset, seed: int):
    tdac = TDAC(Accu(), config=TDACConfig(seed=seed))
    tracer = SpanTracer()
    with activate(tracer):
        outcome = tdac.run(dataset)
    return outcome, tracer.stage_seconds()


def _identity_fields(outcome):
    return (
        outcome.partition,
        outcome.result.predictions,
        outcome.result.confidence,
        outcome.result.source_trust,
    )


def measure(
    dataset_name: str, scale: float, seed: int = 0, repeat: int = 3
) -> dict:
    """Baseline-vs-optimized stage times plus the bit-identity verdict."""
    from repro.datasets import load

    stage_best: dict[str, dict[str, float]] = {"baseline": {}, "optimized": {}}
    witness = {}
    for mode in ("baseline", "optimized"):  # baseline first: no warm gifts
        for _ in range(max(repeat, 1)):
            dataset = load(dataset_name, scale=scale)
            _fresh_caches()
            if mode == "baseline":
                with reference_kernels():
                    outcome, spans = _run_traced(dataset, seed)
            else:
                outcome, spans = _run_traced(dataset, seed)
            best = stage_best[mode]
            for stage, seconds in spans.items():
                best[stage] = min(best.get(stage, float("inf")), seconds)
            witness[mode] = _identity_fields(outcome)

    identical = witness["baseline"] == witness["optimized"]
    if not identical:
        raise AssertionError(
            "vectorized engine diverged from the reference loops; refusing "
            "to report speedups for a non-identical result"
        )

    speedups = {}
    for stage in TARGET_STAGES:
        base = stage_best["baseline"].get(stage, 0.0)
        opt = stage_best["optimized"].get(stage, 0.0)
        if opt > 0:
            speedups[stage] = round(base / opt, 2)
    base_sum = sum(stage_best["baseline"].get(s, 0.0) for s in TARGET_STAGES)
    opt_sum = sum(stage_best["optimized"].get(s, 0.0) for s in TARGET_STAGES)
    if opt_sum > 0:
        speedups["reference_plus_block_runs"] = round(base_sum / opt_sum, 2)

    micro = {}
    for algorithm_cls in MICRO_ALGORITHMS:
        times = {}
        results = {}
        for mode in ("baseline", "optimized"):
            best = float("inf")
            for _ in range(max(repeat, 1)):
                dataset = load(dataset_name, scale=scale)
                _fresh_caches()
                algorithm = algorithm_cls()
                started = time.perf_counter()
                if mode == "baseline":
                    with reference_kernels():
                        result = algorithm.discover(dataset)
                else:
                    result = algorithm.discover(dataset)
                best = min(best, time.perf_counter() - started)
            times[mode] = round(best, 6)
            results[mode] = (
                result.predictions,
                result.confidence,
                result.source_trust,
            )
        if results["baseline"] != results["optimized"]:
            raise AssertionError(
                f"{algorithm_cls.__name__} diverged from its reference loop"
            )
        micro[algorithm_cls.__name__] = {
            **times,
            "speedup": round(times["baseline"] / times["optimized"], 2)
            if times["optimized"] > 0
            else None,
        }

    return {
        "dataset": dataset_name,
        "scale": scale,
        "seed": seed,
        "repeat": repeat,
        "bit_identical": identical,
        "stages_seconds": {
            mode: {k: round(v, 6) for k, v in sorted(best.items())}
            for mode, best in stage_best.items()
        },
        "speedups": speedups,
        "per_algorithm_discover": micro,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", choices=sorted(CONFIGS), default="smoke")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)

    parameters = CONFIGS[args.config]
    record = measure(
        parameters["dataset"], parameters["scale"], repeat=args.repeat
    )
    report = {"config": args.config, "measurement": record}
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {args.output}")
    return 0


def test_base_algorithms_bench(record_artifact, benchmark, tmp_path):
    """Bench-suite entry: smoke config must emit the artefact, and the
    in-harness bit-identity assertions must have held."""
    from conftest import run_once

    output = tmp_path / "BENCH_base_algorithms.json"
    run_once(
        benchmark,
        main,
        ["--config", "smoke", "--repeat", "1", "--output", str(output)],
    )
    assert output.is_file(), "bench failed to emit BENCH_base_algorithms.json"
    report = json.loads(output.read_text())
    record = report["measurement"]
    assert record["bit_identical"] is True
    for mode in ("baseline", "optimized"):
        for stage in TARGET_STAGES:
            assert stage in record["stages_seconds"][mode], (mode, stage)
    record_artifact(
        "base_algorithms_bench", json.dumps(report, indent=2, sort_keys=True)
    )


if __name__ == "__main__":
    sys.exit(main())
