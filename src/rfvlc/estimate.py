"""Point estimates with standard errors and 95% confidence intervals.

proportion_estimates and mean_estimates compute whole arrays of
estimates at once, a sweep's rows in one pass (a scalar input gives one
estimate).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError

Z_95 = 1.959963984540054


class MetricEstimate(NamedTuple):
    """An estimate of n_trials trials with its standard error and 95% interval."""

    value: float
    stderr: float
    n_trials: int
    ci95_low: float
    ci95_high: float


def proportion_estimates(successes, n: int):
    """(value, stderr, ci95_low, ci95_high) of binomial proportions of n
    trials each, arrays shaped like the integer successes.

    The interval is Wilson's score interval, chosen over the normal one
    because it stays inside [0, 1] and behaves at proportions near 0 and 1.
    Its ends are exact where the estimate is: 0 at no success and 1 at n,
    where center -+ half would round off them.
    """
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    successes = np.asarray(successes)
    if ((successes < 0) | (successes > n)).any():
        raise InvalidArgumentError("successes must be in [0, n]")
    p = successes / n
    var = p * (1.0 - p) / n
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (Z_95 / denom) * np.sqrt(var + z2 / (4.0 * n * n))
    # max(0.0, x) and min(1.0, x), NaN and signed zeros included
    low, high = center - half, center + half
    low = np.where((low > 0.0) & (successes > 0), low, 0.0)
    high = np.where((high < 1.0) & (successes < n), high, 1.0)
    return p, np.sqrt(var), low, high


def mean_estimates(total, total_sq, n: int):
    """(value, stderr, ci95_low, ci95_high) of normal-approximation
    estimates of means of n trials each, from running sums (arrays that
    broadcast together)."""
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    mean = total / n
    var = total_sq / n - mean * mean
    stderr = np.sqrt(np.where(var > 0.0, var, 0.0) / n)   # max(0.0, var)
    return mean, stderr, mean - Z_95 * stderr, mean + Z_95 * stderr

