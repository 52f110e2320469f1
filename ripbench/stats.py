"""Summary statistics of the benchmark: percentiles with a sample floor."""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The ``fraction`` percentile (linear interpolation between ranks).

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie strictly above the requested rank, so a p90 needs about 100
    samples and a median about 20.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    count = len(samples)
    rank = fraction * (count - 1)
    low = math.floor(rank + 1e-9)
    beyond = count - 1 - low
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{fraction * 100:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{count} samples leave {beyond}"
        )
    ordered = sorted(samples)
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * max(0.0, rank - low)

