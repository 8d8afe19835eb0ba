"""Order statistics used by the harness.

Percentiles use the nearest-rank rule on the sorted sample: the q-th
percentile of n values is the value of rank ceil(q * n / 100).  A tail
percentile is reported only when at least ``MIN_BEYOND`` samples lie above
its rank, so that it rests on more than a handful of slow queries.
"""

from __future__ import annotations

import statistics

#: fewest samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10


def rank(n: int, q: int) -> int:
    """1-based nearest rank of the ``q``-th percentile (integer ``q``) of
    ``n`` samples, in integer arithmetic so ``q * n / 100`` never rounds."""
    if n < 1 or not 0 < q <= 100:
        raise ValueError(f"no {q}th percentile of {n} samples")
    return max(1, -(-q * n // 100))


def samples_beyond(n: int, q: int) -> int:
    """Samples ranked strictly above the ``q``-th percentile of ``n``."""
    return n - rank(n, q)


def percentile(values, q: int) -> float:
    """Nearest-rank ``q``-th percentile; raises when fewer than
    ``MIN_BEYOND`` samples would lie beyond it (``q < 100``)."""
    n = len(values)
    if q < 100 and samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q} of {n} samples has {samples_beyond(n, q)} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return sorted(values)[rank(n, q) - 1]


def min_samples(q: int) -> int:
    """Smallest sample count whose ``q``-th percentile has ``MIN_BEYOND``
    samples beyond it."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def median(values) -> float:
    return float(statistics.median(values))


def blocked(values, size: int, summary) -> float:
    """Median, over consecutive blocks of ``size`` values (a trailing partial
    block is dropped), of ``summary(block)``.

    On a shared machine the speed drifts for seconds at a time; a block
    summary smooths that out within a block, and the median over blocks
    keeps one slow stretch from moving the figure."""
    blocks = [values[i : i + size] for i in range(0, len(values) - size + 1, size)]
    if not blocks:
        raise ValueError(f"a block of {size} needs {size} values, got {len(values)}")
    return median([summary(block) for block in blocks])


def blocked_percentile(values, q: int) -> float:
    """``q``-th percentile per block of ``min_samples(q)`` values, so that
    each block has ``MIN_BEYOND`` samples beyond it; median over blocks."""
    return blocked(values, min_samples(q), lambda block: percentile(block, q))


def blocked_mean(values, size: int) -> float:
    """Mean per block of ``size`` values; median over blocks."""
    return blocked(values, size, statistics.fmean)
