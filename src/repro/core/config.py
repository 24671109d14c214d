"""Frozen configuration object for TD-AC.

:class:`TDACConfig` consolidates every tuning knob of
:class:`~repro.core.tdac.TDAC` — the distance mode, the sweep bounds,
the k-means restart budget and seed, the parallelism and sparsity
switches, and the worker-failure policy — into one immutable, hashable
value, passed as ``TDAC(base, config=...)``.

A config also knows its :meth:`~TDACConfig.fingerprint`: a short stable
digest over the *result-affecting* knobs only.  Parallelism
(``n_jobs``/``backend``), the sparse kernels and the execution policy
are excluded by design — every one of them is guaranteed bit-identical
to the sequential dense path — so two configs that can only differ in
wall time share a fingerprint.  The serving layer keys its partition
cache on (dataset fingerprint, config fingerprint), which is exactly the
pair that determines the selected partition.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.execution import ExecutionPolicy, validate_backend

#: In ``sparse="auto"`` mode the sparse distance kernels take over once
#: the dense truth-vector matrix would hold this many cells.  Below it
#: the dense BLAS path is faster; either path returns bit-identical
#: distances (binary operands make every Gram count exact), so the
#: threshold is purely a performance knob.
DEFAULT_SPARSE_THRESHOLD = 500_000

#: Config fields that change *what* TD-AC computes, not merely how fast.
#: Only these feed :meth:`TDACConfig.fingerprint`.
RESULT_AFFECTING_FIELDS = ("distance", "k_min", "k_max", "n_init", "seed")


@dataclass(frozen=True)
class TDACConfig:
    """Every knob of a TD-AC run, validated and frozen.

    Parameters
    ----------
    distance:
        ``"hamming"`` (Eq. 2, the paper's choice) or ``"masked"`` — the
        missing-data-aware variant of the paper's perspective (i).
    k_min / k_max:
        Sweep bounds; defaults follow Algorithm 1's ``[2, |A| - 1]``.
    n_init / seed:
        k-means restart count and determinism seed.
    n_jobs:
        Worker count for both parallel surfaces: the ``(k, init)``
        restart grid of the selection sweep and the per-block passes of
        step 4.  1 runs sequentially; any value produces bit-identical
        results.
    backend:
        ``"threads"`` (default; numpy kernels release the GIL) or
        ``"processes"`` for Python-bound base algorithms.
    sparse:
        ``"auto"`` (default), ``True`` or ``False`` — whether the
        pairwise distances are computed on CSR truth vectors.  Auto
        switches to sparse once the dense matrix reaches
        ``sparse_threshold`` cells.  Dense and sparse kernels return
        bit-identical distances.
    sparse_threshold:
        Cell-count cutover for ``sparse="auto"``.
    execution_policy:
        Optional :class:`~repro.execution.ExecutionPolicy` governing
        worker-failure handling (retry with backoff, per-task timeout,
        deterministic sequential fallback) on both parallel surfaces.
        ``None`` uses :data:`~repro.execution.DEFAULT_POLICY`.  Every
        recovery path reproduces the sequential results bit for bit.
    dtype:
        Working precision of the claim-index engine: ``"float64"``
        (default, bit-identical to the historical loops) or
        ``"float32"`` — an opt-in reduced-precision path that halves
        per-iteration array memory and routes incidence reductions
        through CSR GEMV.  float32 *does* change results (documented
        tolerance in ``tests/test_vectorized_engine.py``), so a
        non-default value feeds the fingerprint.
    memmap_threshold:
        When set, truth-vector matrices whose dense cell count reaches
        the threshold are allocated as anonymous memory-mapped arrays
        instead of RAM, letting out-of-core datasets build Eq. 1 without
        holding ``|A| * |O| * |S|`` bytes resident.  ``None`` (default)
        disables mapping.  Purely a placement knob — the filled values
        are identical — so it never affects the fingerprint.
    """

    distance: str = "hamming"
    k_min: int = 2
    k_max: int | None = None
    n_init: int = 10
    seed: int = 0
    n_jobs: int = 1
    backend: str = "threads"
    sparse: bool | str = "auto"
    sparse_threshold: int = DEFAULT_SPARSE_THRESHOLD
    execution_policy: ExecutionPolicy | None = None
    dtype: str = "float64"
    memmap_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.distance not in ("hamming", "masked"):
            raise ValueError(f"unknown distance mode {self.distance!r}")
        if self.k_min < 2:
            raise ValueError("k_min must be at least 2")
        if self.n_init < 1:
            raise ValueError("n_init must be at least 1")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        validate_backend(self.backend)
        if self.sparse not in (True, False, "auto"):
            raise ValueError(
                f"sparse must be True, False or 'auto', got {self.sparse!r}"
            )
        if self.sparse_threshold < 0:
            raise ValueError("sparse_threshold must be non-negative")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(
                f"dtype must be 'float64' or 'float32', got {self.dtype!r}"
            )
        if self.memmap_threshold is not None and self.memmap_threshold < 0:
            raise ValueError("memmap_threshold must be non-negative or None")

    # ------------------------------------------------------------------

    def replace(self, **changes) -> "TDACConfig":
        """A copy of this config with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    @property
    def dtype_np(self) -> np.dtype:
        """The working dtype as a numpy dtype object."""
        return np.dtype(self.dtype)

    def fingerprint(self) -> str:
        """Stable digest of the result-affecting knobs.

        Two configs with equal fingerprints are guaranteed to select the
        same partition and produce the same merged result on the same
        dataset; they may still differ in performance knobs.  ``dtype``
        enters the payload only when it deviates from the bit-identical
        float64 default, so fingerprints recorded by older checkpoints
        keep validating.
        """
        payload = {
            name: getattr(self, name) for name in RESULT_AFFECTING_FIELDS
        }
        if self.dtype != "float64":
            payload["dtype"] = self.dtype
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        """JSON-ready view of every knob (policy rendered structurally)."""
        policy = self.execution_policy
        return {
            "distance": self.distance,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "n_init": self.n_init,
            "seed": self.seed,
            "n_jobs": self.n_jobs,
            "backend": self.backend,
            "sparse": self.sparse,
            "sparse_threshold": self.sparse_threshold,
            "dtype": self.dtype,
            "memmap_threshold": self.memmap_threshold,
            "execution_policy": (
                None
                if policy is None
                else {
                    "max_retries": policy.max_retries,
                    "backoff_seconds": policy.backoff_seconds,
                    "backoff_cap_seconds": policy.backoff_cap_seconds,
                    "timeout_seconds": policy.timeout_seconds,
                    "sequential_fallback": policy.sequential_fallback,
                }
            ),
            "fingerprint": self.fingerprint(),
        }


def config_from_dict(payload: dict) -> TDACConfig:
    """Rebuild a :class:`TDACConfig` from its :meth:`~TDACConfig.to_dict`.

    Used by the durable store to resume a service under the exact config
    it checkpointed with.  When the payload carries a ``fingerprint`` it
    is checked against the rebuilt config, so a hand-edited checkpoint
    cannot silently serve results under the wrong knobs.
    """
    data = dict(payload)
    recorded = data.pop("fingerprint", None)
    policy = data.pop("execution_policy", None)
    if policy is not None:
        policy = ExecutionPolicy(**policy)
    config = TDACConfig(execution_policy=policy, **data)
    if recorded is not None and config.fingerprint() != recorded:
        raise ValueError(
            f"stored config fingerprint {recorded} does not match its "
            f"knobs (recomputed {config.fingerprint()})"
        )
    return config
