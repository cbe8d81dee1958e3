"""Sample statistics shared by every workload.

Percentiles use the nearest-rank rule on integer percents, so the rank is
exact integer arithmetic and the count of samples beyond it is known.  A
tail percentile is only reported when at least ``MIN_BEYOND`` samples lie
beyond it; otherwise the run is misconfigured and :class:`TailTooThin` is
raised instead of printing a tail that is really the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


class TailTooThin(ValueError):
    """Too few samples beyond the requested percentile for it to mean anything."""


def nearest_rank(count: int, percent: int) -> int:
    """1-based nearest rank of ``percent`` (an integer 1..100) among ``count``."""
    if count < 1:
        raise ValueError("no samples")
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in 1..100, got {percent}")
    return max(1, -(-percent * count // 100))


def percentile(values: np.ndarray, percent: int, *, min_beyond: int = 0) -> float:
    """Nearest-rank ``percent`` of ``values``.

    Raises:
        TailTooThin: fewer than ``min_beyond`` samples lie beyond the rank.
    """
    values = np.asarray(values, dtype=np.float64)
    count = len(values)
    rank = nearest_rank(count, percent)
    beyond = count - rank
    if beyond < min_beyond:
        raise TailTooThin(
            f"p{percent} of {count} samples has {beyond} beyond it; "
            f"at least {min_beyond} are needed"
        )
    return float(np.partition(values, rank - 1)[rank - 1])


@dataclass(frozen=True)
class Latency:
    """Median and tail of one run's per-op times, in milliseconds."""

    p50_ms: float
    tail_ms: float
    tail_percent: int
    samples: int


def latency_summary(seconds: np.ndarray, tail_percent: int) -> Latency:
    """Median and the fixed tail percentile of per-op times given in seconds."""
    ms = np.asarray(seconds, dtype=np.float64) * 1e3
    return Latency(
        p50_ms=percentile(ms, 50),
        tail_ms=percentile(ms, tail_percent, min_beyond=MIN_BEYOND),
        tail_percent=tail_percent,
        samples=len(ms),
    )

