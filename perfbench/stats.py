"""Percentiles and spreads used by the benchmark and its compare mode."""

from __future__ import annotations

import math
import statistics


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis quantile: a Beta-weighted mean of all order statistics.

    A plain order statistic jumps by the whole gap between two cost
    classes when jitter reorders the samples next to its rank; the
    Harrell-Davis estimate weights the neighbourhood of the rank instead
    and moves smoothly.
    """
    from scipy.stats import beta

    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    a, b = p * (n + 1), (1 - p) * (n + 1)
    edges = beta.cdf([i / n for i in range(n + 1)], a, b)
    return float(sum((edges[i + 1] - edges[i]) * xs[i] for i in range(n)))


def tail_count(n: int, p: float) -> int:
    """Samples beyond the ``p`` quantile of ``n`` samples."""
    return n - math.ceil(round(p * n, 9))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
