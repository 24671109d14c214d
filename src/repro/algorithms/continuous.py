"""Continuous-valued truth discovery: CRH / CATD weighted estimation.

The slot machinery votes among *claimed* values, which is sound for
categorical data but wrong for numeric attributes: the best estimate of a
sensor reading or a price is a reliability-weighted aggregate that no
single source may have claimed verbatim.  This module carries the
continuous halves of CRH (Li et al., SIGMOD 2014) and CATD (Li et al.,
VLDB 2015): truths are weighted means of the claimed values, losses are
per-fact-normalised squared errors, and source weights follow each
framework's closed form (``-log`` loss ratio for CRH, chi-squared
interval over loss for CATD).  :class:`ContinuousMedian` is the
single-pass robust baseline.

All three reuse the compiled :class:`~repro.data.index.DatasetIndex`
(``supports_index`` stays True), so they flow through the claim-index
engine's sliced block views under TD-AC partitioning exactly like the
categorical algorithms; only winner extraction differs — predictions are
real numbers, not slot ids.  Evaluation uses the tolerance contract
(:func:`repro.metrics.classification.tolerant_fact_accuracy` /
the typed metrics), never exact match.
"""

from __future__ import annotations

import time

import numpy as np

from repro.algorithms.base import TruthDiscoveryAlgorithm, TruthDiscoveryResult
from repro.algorithms.convergence import ConvergenceCriterion
from repro.data.dataset import Dataset
from repro.data.index import DatasetIndex
from repro.data.types import CONTINUOUS, DataError

_LOSS_FLOOR = 1e-6
_SCALE_FLOOR = 1e-9


class _ContinuousEstimator(TruthDiscoveryAlgorithm):
    """Shared scaffolding: claim-value extraction, result materialisation.

    Subclasses implement :meth:`_estimate` over the per-claim value array
    and return ``(truths, confidence, trust, iterations)``.
    """

    value_types = frozenset({CONTINUOUS})

    def discover(self, data: Dataset | DatasetIndex) -> TruthDiscoveryResult:
        index = data if isinstance(data, DatasetIndex) else DatasetIndex(data)
        start = time.perf_counter()
        claim_value = self._claim_values(index)
        truths, fact_confidence, trust, iterations = self._estimate(
            index, claim_value
        )
        elapsed = time.perf_counter() - start
        predictions = {
            fact: float(truths[f_id]) for f_id, fact in enumerate(index.facts)
        }
        confidence = {
            fact: float(fact_confidence[f_id])
            for f_id, fact in enumerate(index.facts)
        }
        source_trust = {
            source: float(trust[s_id])
            for s_id, source in enumerate(index.dataset.sources)
        }
        return TruthDiscoveryResult(
            algorithm=self.name,
            predictions=predictions,
            confidence=confidence,
            source_trust=source_trust,
            iterations=iterations,
            elapsed_seconds=elapsed,
        )

    @staticmethod
    def _claim_values(index: DatasetIndex) -> np.ndarray:
        try:
            slot_values = np.asarray(
                [float(v) for v in index.slot_values], dtype=np.float64
            )
        except (TypeError, ValueError) as exc:
            raise DataError(
                "continuous estimators require numeric claim values; "
                "tag non-numeric attributes categorical"
            ) from exc
        return slot_values[index.claim_slot]

    @staticmethod
    def _fact_scale(index: DatasetIndex, claim_value: np.ndarray) -> np.ndarray:
        """Per-fact normalisation scale: std of the claimed values.

        Constant across iterations (CRH normalises continuous losses per
        entry so wide-range facts do not dominate the source loss).
        """
        counts = np.maximum(
            np.bincount(index.claim_fact, minlength=index.n_facts), 1
        )
        mean = (
            np.bincount(
                index.claim_fact, weights=claim_value, minlength=index.n_facts
            )
            / counts
        )
        sq = (
            np.bincount(
                index.claim_fact,
                weights=claim_value * claim_value,
                minlength=index.n_facts,
            )
            / counts
        )
        var = np.maximum(sq - mean * mean, 0.0)
        return np.maximum(np.sqrt(var), _SCALE_FLOOR)

    @staticmethod
    def _weighted_mean(
        index: DatasetIndex, claim_value: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        claim_weight = weights[index.claim_source]
        num = np.bincount(
            index.claim_fact,
            weights=claim_weight * claim_value,
            minlength=index.n_facts,
        )
        den = np.bincount(
            index.claim_fact, weights=claim_weight, minlength=index.n_facts
        )
        return num / np.maximum(den, _SCALE_FLOOR)

    @staticmethod
    def _residual_confidence(
        index: DatasetIndex,
        claim_value: np.ndarray,
        truths: np.ndarray,
        weights: np.ndarray,
        scale: np.ndarray,
    ) -> np.ndarray:
        """Per-fact confidence: 1 / (1 + weighted RMS normalised residual)."""
        err = (
            (claim_value - truths[index.claim_fact]) / scale[index.claim_fact]
        ) ** 2
        claim_weight = weights[index.claim_source]
        num = np.bincount(
            index.claim_fact, weights=claim_weight * err, minlength=index.n_facts
        )
        den = np.maximum(
            np.bincount(
                index.claim_fact, weights=claim_weight, minlength=index.n_facts
            ),
            _SCALE_FLOOR,
        )
        return 1.0 / (1.0 + np.sqrt(num / den))

    def _estimate(self, index: DatasetIndex, claim_value: np.ndarray):
        raise NotImplementedError

    def _solve(self, index):  # pragma: no cover - discover() is overridden
        raise NotImplementedError(
            "continuous estimators override discover(); _solve is never called"
        )


class ContinuousCRH(_ContinuousEstimator):
    """CRH on numeric data: weighted-mean truths, log-ratio weights."""

    name = "CRH-Cont"

    def __init__(
        self, tolerance: float = 1e-4, max_iterations: int = 20
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.criterion = ConvergenceCriterion(tolerance, measure="max_change")
        self.max_iterations = max_iterations

    def _estimate(self, index: DatasetIndex, claim_value: np.ndarray):
        scale = self._fact_scale(index, claim_value)
        weights = np.ones(index.n_sources, dtype=np.float64)
        counts = np.maximum(index.claims_per_source.astype(np.float64), 1.0)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            truths = self._weighted_mean(index, claim_value, weights)
            err = (
                (claim_value - truths[index.claim_fact])
                / scale[index.claim_fact]
            ) ** 2
            losses = np.bincount(
                index.claim_source, weights=err, minlength=index.n_sources
            )
            losses = np.maximum(losses / counts, _LOSS_FLOOR)
            total = losses.sum()
            new_weights = -np.log(losses / max(total, _LOSS_FLOOR))
            new_weights = np.clip(new_weights, _LOSS_FLOOR, None)
            peak = new_weights.max()
            if peak > 0:
                new_weights = new_weights / peak
            if self.criterion.converged(weights, new_weights):
                weights = new_weights
                break
            weights = new_weights
        truths = self._weighted_mean(index, claim_value, weights)
        confidence = self._residual_confidence(
            index, claim_value, truths, weights, scale
        )
        return truths, confidence, weights, iterations


class ContinuousCATD(_ContinuousEstimator):
    """CATD on numeric data: chi-squared interval weights over losses."""

    name = "CATD-Cont"

    def __init__(
        self,
        significance: float = 0.05,
        tolerance: float = 1e-4,
        max_iterations: int = 20,
    ) -> None:
        if not 0.0 < significance < 1.0:
            raise ValueError("significance must be in (0, 1)")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.significance = significance
        self.criterion = ConvergenceCriterion(tolerance, measure="max_change")
        self.max_iterations = max_iterations

    def _estimate(self, index: DatasetIndex, claim_value: np.ndarray):
        from scipy import stats  # lazy: keeps scipy.stats out of `import repro`

        scale = self._fact_scale(index, claim_value)
        counts = np.maximum(index.claims_per_source.astype(np.float64), 1.0)
        interval = stats.chi2.ppf(self.significance / 2.0, df=counts)
        interval = np.maximum(interval, _LOSS_FLOOR)

        weights = np.ones(index.n_sources, dtype=np.float64)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            truths = self._weighted_mean(index, claim_value, weights)
            err = (
                (claim_value - truths[index.claim_fact])
                / scale[index.claim_fact]
            ) ** 2
            losses = np.maximum(
                np.bincount(
                    index.claim_source, weights=err, minlength=index.n_sources
                ),
                _LOSS_FLOOR,
            )
            new_weights = interval / losses
            peak = new_weights.max()
            if peak > 0:
                new_weights = new_weights / peak
            if self.criterion.converged(weights, new_weights):
                weights = new_weights
                break
            weights = new_weights
        truths = self._weighted_mean(index, claim_value, weights)
        confidence = self._residual_confidence(
            index, claim_value, truths, weights, scale
        )
        return truths, confidence, weights, iterations


class ContinuousMedian(_ContinuousEstimator):
    """Single-pass per-fact median: the robust unweighted baseline."""

    name = "Median-Cont"

    def _estimate(self, index: DatasetIndex, claim_value: np.ndarray):
        counts = np.bincount(index.claim_fact, minlength=index.n_facts)
        order = np.lexsort((claim_value, index.claim_fact))
        ordered = claim_value[order]
        starts = np.zeros(index.n_facts + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        truths = np.zeros(index.n_facts, dtype=np.float64)
        nonempty = counts > 0
        lo = starts[:-1] + (np.maximum(counts, 1) - 1) // 2
        hi = starts[:-1] + np.maximum(counts, 1) // 2
        picked = np.where(nonempty)[0]
        truths[picked] = 0.5 * (ordered[lo[picked]] + ordered[hi[picked]])
        weights = np.ones(index.n_sources, dtype=np.float64)
        scale = self._fact_scale(index, claim_value)
        confidence = self._residual_confidence(
            index, claim_value, truths, weights, scale
        )
        return truths, confidence, weights, 1
