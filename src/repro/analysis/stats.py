"""Small statistics helpers used by the experiment harness.

Kept deliberately lightweight: means, standard deviations, Student-t
confidence intervals (via :mod:`scipy.stats`) and a seeded bootstrap for
quantities whose sampling distribution is awkward (e.g. capacity ratios).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SummaryStats",
    "summarize",
    "mean_confidence_interval",
    "bootstrap_ci",
]


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-ish summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    def __str__(self) -> str:
        return (
            f"n={self.n} mean={self.mean:.4g} +/- "
            f"{(self.ci_high - self.ci_low) / 2:.2g} "
            f"[min={self.minimum:.4g}, max={self.maximum:.4g}]"
        )


def summarize(values: Sequence[float], confidence: float = 0.95) -> SummaryStats:
    """Mean, spread and a t-interval for a sample."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    low, high = mean_confidence_interval(arr, confidence)
    return SummaryStats(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        ci_low=low,
        ci_high=high,
    )


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Student-t confidence interval for the mean.

    Degenerate samples (n == 1 or zero variance) return a zero-width
    interval at the mean.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot build a confidence interval from no data")
    mean = float(arr.mean())
    if arr.size == 1:
        return (mean, mean)
    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    if sem == 0.0:
        return (mean, mean)
    from scipy import stats as sps  # ~1 s to import; keep it off start-up

    t = float(sps.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1))
    return (mean - t * sem, mean + t * sem)


def bootstrap_ci(
    values: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.mean,
    confidence: float = 0.95,
    n_resamples: int = 2_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for an arbitrary statistic."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples!r}")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    rng = np.random.default_rng(seed)
    estimates = np.empty(n_resamples, dtype=float)
    for i in range(n_resamples):
        resample = arr[rng.integers(0, arr.size, size=arr.size)]
        estimates[i] = float(statistic(resample))
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(estimates, alpha)),
        float(np.quantile(estimates, 1.0 - alpha)),
    )
