"""Small statistics helpers used by experiments and reporting.

The paper reports most results as *log ratios* of a quantity relative to a
reference (step 0 of the GA, or the HEFT schedule); :func:`log_ratio` is the
single implementation of that transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["log_ratio", "geometric_mean", "normal_cdf", "summarize", "Summary"]


def normal_cdf(x: float) -> float:
    """Standard normal CDF Φ(x) of a scalar, via ``math.erf``."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def log_ratio(value: np.ndarray | float, reference: np.ndarray | float) -> np.ndarray | float:
    """Natural-log ratio ``log(value / reference)`` used throughout Sec. 5.

    Both arguments must be strictly positive.  Accepts scalars or arrays
    (broadcasting applies).
    """
    value_arr = np.asarray(value, dtype=np.float64)
    ref_arr = np.asarray(reference, dtype=np.float64)
    if np.any(value_arr <= 0) or np.any(ref_arr <= 0):
        raise ValueError("log_ratio requires strictly positive inputs")
    out = np.log(value_arr / ref_arr)
    if np.isscalar(value) and np.isscalar(reference):
        return float(out)
    return out


def geometric_mean(values: np.ndarray) -> float:
    """Geometric mean of strictly positive values.

    Used to aggregate per-instance ratios across the 100-graph instance pool:
    ratios compose multiplicatively, so the geometric mean is the natural
    cross-instance average (equivalently the exponential of the mean
    log-ratio the paper plots).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geometric_mean of an empty array")
    if np.any(arr <= 0):
        raise ValueError("geometric_mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.n} mean={self.mean:.4g} std={self.std:.4g} "
            f"min={self.minimum:.4g} max={self.maximum:.4g}"
        )


def summarize(values: np.ndarray) -> Summary:
    """Summary statistics of a non-empty sample."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=0)),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )
