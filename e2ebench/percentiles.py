"""Summary statistics for the benchmark: medians and honest percentiles.

A percentile is only reported when at least :data:`MIN_BEYOND` samples lie
beyond it, so a p90 needs 100 timed rounds; a shorter run is refused
instead of reporting a tail that rests on one or two rounds.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

MIN_BEYOND = 10
"""Samples that must lie above a reported percentile."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples`` (a measured sample).

    Raises :class:`ValueError` when fewer than :data:`MIN_BEYOND` samples
    lie beyond the percentile's rank.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q / 100 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are required"
        )
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    """The median; refuses an empty sample."""
    if not samples:
        raise ValueError("median of no samples")
    return float(statistics.median(samples))
