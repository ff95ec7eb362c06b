"""Point estimates with standard errors and 95% confidence intervals.

proportion_estimates and mean_estimates compute whole arrays of
estimates at once, a sweep's rows in one pass (a scalar input gives one
estimate).  A mean's samples are summarised part by part as moments
(mean and sum of squared deviations), and the parts merged in order
(merged_moments), so no variance is a difference of large sums.
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


def moments(x):
    """(mean, m2) over the last axis of x: the mean and the sum of squared
    deviations from it.  Both come from the samples shifted by the first
    one, so that a constant sample gives its value and an m2 of exactly 0."""
    shift = x[..., :1]
    d = x - shift
    mean = d.mean(axis=-1, keepdims=True)
    d -= mean
    d *= d
    return (shift + mean)[..., 0], d.sum(axis=-1)


def merged_moments(means, m2s, sizes):
    """(mean, m2) of parts merged in order: part i, of sizes[i] samples, has
    the moments means[i] and m2s[i] (arrays that broadcast together).  The
    update is Chan, Golub & LeVeque's (Amer. Statist. 37, 1983): parts of
    one value merge to that value and an m2 of exactly 0."""
    mean, m2, n = means[0], m2s[0], sizes[0]
    for mean_b, m2_b, n_b in zip(means[1:], m2s[1:], sizes[1:]):
        delta = mean_b - mean
        total = n + n_b
        mean = mean + delta * (n_b / total)
        m2 = m2 + m2_b + delta * delta * (n * n_b / total)
        n = total
    return mean, m2


def mean_estimates(mean, m2, n: int):
    """(value, stderr, ci95_low, ci95_high) of normal-approximation
    estimates of means of n trials each, from their moments (arrays that
    broadcast together): the variance is m2 / n."""
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    stderr = np.sqrt(m2 / n / n)
    return mean, stderr, mean - Z_95 * stderr, mean + Z_95 * stderr
