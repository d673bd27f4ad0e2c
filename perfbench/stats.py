"""Order statistics for op timings."""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def tail(values):
    """The op tail: (value, percentile, samples beyond it).

    It is the highest percentile with at least :data:`MIN_BEYOND` samples
    beyond it: the sample with exactly ten above it, at percentile
    100 * (n - 10) / n. Up to 20 samples that sample is not above the
    median, so the tail falls back to the median, and its beyond-count
    says how thin it is.
    """
    n = len(values)
    if n <= 2 * MIN_BEYOND:
        return statistics.median(values), 50.0, n // 2
    ordered = sorted(values)
    return ordered[n - MIN_BEYOND - 1], 100.0 * (n - MIN_BEYOND) / n, MIN_BEYOND


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
