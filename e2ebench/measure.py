"""Summary statistics for BENCH_E2E."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Iterable, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100): the smallest
    sample with at least ``q`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


#: a tail percentile is reported only with this many samples beyond it
TAIL_BEYOND = 10


def tail_percentile(values: Sequence[float]) -> Optional[tuple[int, float]]:
    """The highest whole-number percentile that still has at least
    TAIL_BEYOND samples above it, with its value; None when the samples
    are too few for any percentile to qualify (a timing's tail is only
    reported where it rests on that many samples)."""
    n = len(values)
    for q in range(99, 0, -1):
        if n - math.ceil(q / 100 * n) >= TAIL_BEYOND:
            return q, percentile(values, q)
    return None


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles`` with n=4)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def growth_per_second(samples: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of ``(time, value)`` samples: how fast a queue
    grows (per second) across a run; 0.0 with fewer than two distinct
    times."""
    if len(samples) < 2:
        return 0.0
    mean_t = statistics.fmean(t for t, _ in samples)
    mean_v = statistics.fmean(v for _, v in samples)
    var = sum((t - mean_t) ** 2 for t, _ in samples)
    if var == 0.0:
        return 0.0
    cov = sum((t - mean_t) * (v - mean_v) for t, v in samples)
    return cov / var


def busy_seconds(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals: the time in
    which at least one of them was open."""
    total = 0.0
    open_start = open_end = None
    for start, end in sorted(intervals):
        if open_end is None or start > open_end:
            if open_end is not None:
                total += open_end - open_start
            open_start, open_end = start, end
        else:
            open_end = max(open_end, end)
    if open_end is not None:
        total += open_end - open_start
    return total


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
