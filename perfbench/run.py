"""The TD-AC benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload offline-ds2 --seed 1 \
        --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` gives the one-line reason for each):

* ``offline-ds2``    one op = ``TDAC(base).run`` on DS2 (scale 1.0) for
  MajorityVote, CRH, TruthFinder and Accu, on a fresh ``Dataset``;
* ``offline-exam62`` one op = ``TDAC(MajorityVote).run`` on Exam 62;
* ``serve-ingest``   ``repro serve --listen`` over DS1 (scale 0.3) in a
  subprocess, driven open-loop by Poisson ingests and queries;
* ``restart``        one op = restart a SIGKILLed server from a copy of
  a template store, until a query answers at watermark 920.

``--trace 0`` measures the end-to-end metrics with no wrappers installed:
``setup_s``; ``op_cal_p50`` and ``op_cal_tail``, the median and tail op
cost (on ``serve-ingest``, ingest due-to-visible latency) in calibration
units, i.e. divided by the time a fixed slice of interpreter and numpy
work takes around it (``common.calibrate``), so that the shared host's
speed drift cancels; ``goodput_share``, ops correct (on ``serve-ingest``:
ingests acknowledged within 1 s of their due time) per op attempted; and
``peak_rss_mb``.  Raw seconds are in the record line's ``samples``.
``--trace 1`` installs the layer wrappers of ``layers.py`` (in the server
subprocess through ``launch.py`` for the serving workloads), alternates
traced and untraced ops, and reports the per-layer metrics plus
``unattributed_share`` and ``trace_overhead``.

The measured work (the benchmark process for the offline workloads, the
server for the others) and every calibration run on one CPU with one
BLAS thread; the serving workloads' load generator runs on the other
CPUs.

Before the result, one JSON line carries the run's provenance and the
outcome of every correctness check.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when a correctness check fails or the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# One BLAS thread: the measured work gets one CPU (see common.WORK_CPU).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from common import CLIENT_CPUS, EXPECTED, ROOT, SRC, WORK_CPU, provenance

WORKLOADS = ("offline-ds2", "offline-exam62", "serve-ingest", "restart")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=EXPECTED["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    # The parent imports everything a server imports, so compiled
    # bytecode exists before any server is timed.
    import repro.cli  # noqa: F401

    offline_workload = args.workload.startswith("offline-")
    os.sched_setaffinity(0, {WORK_CPU} if offline_workload else CLIENT_CPUS)
    if offline_workload:
        import offline

        outcome = offline.run(args.workload, args.seconds, args.trace)
    else:
        import serving

        outcome = serving.run(
            args.workload, args.seed, args.seconds, args.trace
        )

    record = {
        "record": "tdac-bench/v2",
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {**provenance(args.seed), **outcome["provenance"]},
        "checks": outcome["checks"],
        "samples": outcome["samples"],
    }
    print(json.dumps(record, sort_keys=True, default=str))
    correct = all(outcome["checks"].values())
    failed = outcome["failed"]
    if not correct:
        failed = max(failed, 1)
        bad = [name for name, ok in outcome["checks"].items() if not ok]
        print(f"correctness checks failed: {bad}", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        # A layer the workload does not exercise reads 0.
        metrics = {
            m["name"]: (outcome["per_layer"].get(m["name"], 0.0), m["unit"])
            for m in declared["per_layer"]
        }
    else:
        metrics = {
            m["name"]: (outcome["end_to_end"][m["name"]], m["unit"])
            for m in declared["end_to_end"]
        }
    result = {
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    started = time.perf_counter()
    code = main(sys.argv[1:])
    print(f"benchmark wall time {time.perf_counter() - started:.1f}s",
          file=sys.stderr)
    sys.exit(code)
