"""The offline workloads: TD-AC passes in the benchmark process.

Both run the repository's fixed corpora (generator seed 0, what
``repro run`` uses by default), so every op of every run must reproduce
the result digest recorded in ``expected.json``.  Each op rebuilds a
fresh ``Dataset`` from a serialized copy, untimed, so the claim-index
compile is paid per op as a ``repro run`` user pays it.  A host-speed
calibration runs between ops (see ``common.calibrate``).
"""

from __future__ import annotations

import statistics
import time

from common import EXPECTED, calibrate, in_cal, op_metrics, result_digest
from common import self_peak_rss_mb, trace_overhead

import layers

SETUP_REPEATS = 3
MIN_OPS = 3
CORPORA = {
    "offline-ds2": ("DS2", 1.0, layers.BASES),
    "offline-exam62": ("Exam 62", 1.0, ("MajorityVote",)),
}


def run(workload: str, seconds: float, trace: int) -> dict:
    from repro.algorithms import create
    from repro.core import TDAC, TDACConfig
    from repro.data.io import dataset_from_dict, dataset_to_dict
    from repro.datasets import load

    corpus, scale, bases = CORPORA[workload]
    config = TDACConfig()
    decode = dataset_from_dict  # the unwrapped decoder: untimed rebuild

    def one_op(payload, tracer=None):
        dataset = decode(payload)
        if tracer is not None:
            with tracer.op() as span:
                results = [
                    TDAC(create(base), config=config).run(dataset)
                    for base in bases
                ]
            elapsed = span.end - span.start
        else:
            start = time.perf_counter()
            results = [
                TDAC(create(base), config=config).run(dataset)
                for base in bases
            ]
            elapsed = time.perf_counter() - start
        return elapsed, result_digest(results), dataset.fingerprint

    setups = []
    digests = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        payload = dataset_to_dict(load(corpus, seed=0, scale=scale))
        _, digest, fingerprint = one_op(payload)
        setups.append(time.perf_counter() - start)
        digests.append(digest)

    tracer = None
    if trace:
        tracer = layers.Tracer()
        layers.install(tracer)
    # Op costs in calibration units, and the raw seconds behind them.
    traced, untraced, raw = [], [], []
    cal = calibrate()
    cals = [cal]
    peak_rss_mb = None
    begin = time.perf_counter()
    while (
        time.perf_counter() - begin < seconds
        or len(untraced) < MIN_OPS
        or (tracer is not None and len(traced) < MIN_OPS)
    ):
        use_tracer = tracer is not None and len(traced) <= len(untraced)
        if tracer is not None:
            tracer.enabled = use_tracer
        elapsed, digest, _ = one_op(payload, tracer if use_tracer else None)
        after = calibrate()
        (traced if use_tracer else untraced).append(in_cal(elapsed, cal, after))
        cal = after
        cals.append(cal)
        if not use_tracer:
            raw.append(elapsed)
        digests.append(digest)
        if len(untraced) == MIN_OPS and peak_rss_mb is None:
            # After a fixed amount of work, so caches that grow per op
            # do not make the figure depend on how many ops fit.
            peak_rss_mb = self_peak_rss_mb()

    expected = EXPECTED["digests"].get(workload)
    checks = {
        "digest_identical_across_ops": len(set(digests)) == 1,
        "digest_matches_expected": digests[0] == expected,
    }
    good = sum(d == expected for d in digests)
    out = {
        "provenance": {
            "dataset_fingerprint": fingerprint,
            "tdac_config_fingerprint": config.fingerprint(),
            "service_config_fingerprint": None,
            "digest": digests[0],
        },
        "checks": checks,
        "attempted": len(digests),
        "failed": len(digests) - good,
        "samples": {
            "setup_s": setups,
            "op_s": raw,
            "op_cal": untraced,
            "op_cal_traced": traced,
            "calibration_s": cals,
        },
        "end_to_end": {
            "setup_s": statistics.median(setups),
            **op_metrics(untraced, good, len(digests)),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if tracer is not None:
        out["per_layer"] = per_layer(tracer, traced, untraced)
    return out


def per_layer(tracer, traced, untraced) -> dict:
    """Per-layer seconds and counts per op, coverage and overhead."""
    ops = [span for span in tracer.spans if span[2] == "bench.op"]
    n = len(ops)
    totals = layers.summarize(tracer.spans, tracer.counts)
    metrics = {name: value / n for name, value in totals.items()}
    op_time = sum(span[4] - span[3] for span in ops)
    covered = sum(layers.covered(tracer.spans, span) for span in ops)
    metrics["unattributed_share"] = 1.0 - covered / op_time
    metrics["trace_overhead"] = trace_overhead(traced, untraced)
    return metrics
