"""Shared low-level helpers: RNG management, validation, statistics, tables.

This subpackage has no dependencies on the rest of :mod:`repro`; every other
layer may import from it.
"""

from repro.utils.rng import as_generator, spawn_generators, spawn_seeds
from repro.utils.stats import (
    geometric_mean,
    log_ratio,
    normal_cdf,
    summarize,
    Summary,
)
from repro.utils.validation import (
    check_matrix,
    check_positive,
    check_probability,
    check_square,
)

__all__ = [
    "as_generator",
    "spawn_generators",
    "spawn_seeds",
    "geometric_mean",
    "log_ratio",
    "normal_cdf",
    "summarize",
    "Summary",
    "check_matrix",
    "check_positive",
    "check_probability",
    "check_square",
]
