"""Helpers shared by the benchmark's workloads: statistics, CPU
placement and host-speed calibration, memory, result digests and run
provenance."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = json.loads((HERE / "expected.json").read_text())

#: The CPU the measured work runs on: the benchmark process itself for
#: the offline workloads, the server for the serving ones.  Calibrations
#: run there too, because the host slows each CPU on its own.  The load
#: generator of the serving workloads runs on the other CPUs, if any.
_CPUS = sorted(os.sched_getaffinity(0))
WORK_CPU = _CPUS[-1]
CLIENT_CPUS = set(_CPUS[:-1]) or {WORK_CPU}


@contextlib.contextmanager
def on_cpus(cpus: set[int]):
    """Run the calling thread, and what it spawns, on ``cpus``."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


# ----------------------------------------------------------------------
# Statistics shared by the workloads
# ----------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated ``q`` quantile of ``values`` (inclusive)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(n: int) -> float:
    """The highest quantile with at least twenty samples beyond it.

    0.90 at 200 samples; below 40 samples no tail percentile is
    supported by the data and the median is used.  Twenty rather than
    ten, because on the shared host a quantile with ten samples beyond it
    spread by 20% between runs of the same code.
    """
    return max(0.5, 1.0 - 20.0 / n)


def op_metrics(op_cal: list[float], good: int, attempted: int) -> dict:
    """Median and tail op cost in calibration units, and the good share."""
    return {
        "op_cal_p50": statistics.median(op_cal),
        "op_cal_tail": quantile(op_cal, tail_quantile(len(op_cal))),
        "goodput_share": good / attempted,
    }


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------

_CAL_SLICES = 20
_cal_arrays = None


def _calibration_slice() -> float:
    """Thread CPU seconds of a fixed slice of interpreter and numpy work.

    CPU time, not wall time, so that a slice sharing its CPU with a busy
    server measures the CPU's speed and not the wait for its turn.
    """
    global _cal_arrays
    import numpy

    if _cal_arrays is None:
        rng = numpy.random.default_rng(0)
        _cal_arrays = rng.random((64, 64)), rng.random(4_000)
    matrix, vector = _cal_arrays
    start = time.thread_time()
    counts: dict[int, int] = {}
    for i in range(15_000):
        key = i % 1009
        counts[key] = counts.get(key, 0) + i
    sorted(str(i * 7919 % 100_003) for i in range(2_000))
    for _ in range(5):
        (matrix @ matrix.T).sum()
        numpy.argsort(vector)
        numpy.unique(vector[:2000])
    return time.thread_time() - start


def calibrate(repeats: int = 1) -> float:
    """Seconds a fixed amount of interpreter and numpy work takes now on
    ``WORK_CPU`` (the median of ``repeats``).

    The shared host's speed drifts by 20-30% over seconds, per CPU (CPU
    time tracks wall time, so it is not descheduling).  Op times are
    divided by a calibration taken on the same CPU around them, so the
    reported costs, in calibration units (``cal``), follow the program
    and not the host.  One calibration takes about 0.1 s on a 2-core x86
    VM.
    """
    with on_cpus({WORK_CPU}):
        return statistics.median(
            sum(_calibration_slice() for _ in range(_CAL_SLICES))
            for _ in range(repeats)
        )


class SpeedSampler:
    """Calibrates ``WORK_CPU`` in the background while a server runs there.

    A thread pinned to ``WORK_CPU`` times one calibration slice every
    ``period`` seconds; :meth:`calibration` is their median, scaled to a
    whole calibration.  A slice takes about 5 ms, so the server loses
    about 2% of its CPU and the load generator's event loop waits at most
    one slice for the GIL.
    """

    def __init__(self, period: float = 0.25) -> None:
        self.period = period
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        os.sched_setaffinity(0, {WORK_CPU})
        while not self._stop.wait(self.period):
            self.samples.append(_calibration_slice() * _CAL_SLICES)

    def calibration(self) -> float:
        return statistics.median(self.samples)


def in_cal(seconds: float, before: float, after: float | None = None) -> float:
    """``seconds`` in calibration units, given the calibrations taken
    just before and just after them (or one taken during them)."""
    return seconds * 2.0 / (before + (before if after is None else after))


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """High-water resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def trace_overhead(traced: list[float], untraced: list[float]) -> float:
    return statistics.median(traced) / statistics.median(untraced) - 1.0


def result_digest(results) -> str:
    """sha256 over predictions, source trust, partition and silhouettes."""
    payload = [
        {
            "predictions": sorted(
                [str(f.object), str(f.attribute), repr(v)]
                for f, v in r.predictions.items()
            ),
            "source_trust": sorted(
                [str(s), repr(t)] for s, t in r.source_trust.items()
            ),
            "partition": [[str(a) for a in b] for b in r.partition.blocks],
            "silhouette_by_k": sorted(
                [k, repr(v)] for k, v in r.silhouette_by_k.items()
            ),
        }
        for r in results
    ]
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def _commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, if it exposes one."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libraries = {
                line.split()[-1]
                for line in handle
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return None
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in symbols:
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def provenance(seed: int) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(_CPUS),
        "work_cpu": WORK_CPU,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {
            name: os.environ.get(name)
            for name in (
                "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS",
                "MKL_NUM_THREADS",
            )
        },
        "seed": seed,
    }
