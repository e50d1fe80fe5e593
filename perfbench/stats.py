"""Order statistics shared by the benchmark's reports (stdlib only)."""

from __future__ import annotations

import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    """Median of ``values``; 0.0 for an empty list."""
    return float(statistics.median(values)) if values else 0.0


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns ``(value, percentile, n)``. In ascending order the sample at
    zero-based rank ``k`` has ``n - 1 - k`` samples after it, so the
    highest admissible rank is ``n - 1 - beyond``; its percentile is
    ``100 * k / (n - 1)``. With ``n <= beyond`` no sample qualifies and
    the result is ``(0.0, 0.0, n)``.
    """
    n = len(values)
    if n <= beyond:
        return 0.0, 0.0, n
    ordered = sorted(values)
    k = n - 1 - beyond
    return float(ordered[k]), 100.0 * k / (n - 1), n
