"""Wall-clock helpers shared by the standalone benchmark scripts.

Two methods live here:

* :func:`best_of` — the best wall clock over a few runs of freshly built
  specs (``bench_perf.py``'s speedup ratios);
* :func:`paired_ratios` — interleaved timing pairs of two legs, reduced to
  the upper median of the per-pair ratios (``bench_faults.py`` and
  ``bench_supervision.py``'s < 2% overhead gates). Each pair runs leg A
  then leg B, so slow drift on a shared box cancels inside the pair, and
  the median of the ratios discards outliers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable


def best_of(reps: int, make_spec: Callable[[], Any], run: Callable[[Any], Any]):
    """Best wall-clock over ``reps`` runs of freshly-built specs."""
    best = float("inf")
    result = None
    for _ in range(reps):
        spec = make_spec()
        start = time.perf_counter()
        result = run(spec)
        best = min(best, time.perf_counter() - start)
    return best, result


def timed(inner: int, fn: Callable[[], Any]) -> tuple[float, Any]:
    """Run ``fn`` ``inner`` times; return the elapsed seconds and the last result."""
    t0 = time.perf_counter()
    result = None
    for _ in range(inner):
        result = fn()
    return time.perf_counter() - t0, result


@dataclass
class PairedTiming:
    """Samples of two interleaved legs and their per-pair ratios.

    ``ratios`` holds ``a / b`` per pair, sorted ascending; ``a_result``
    and ``b_result`` are each leg's result from the last pair.
    """

    a_samples: list[float]
    b_samples: list[float]
    ratios: list[float]
    a_result: Any
    b_result: Any

    @property
    def median_ratio(self) -> float:
        """The upper middle ratio (the median for an odd pair count)."""
        return self.ratios[len(self.ratios) // 2]


def paired_ratios(
    repeats: int,
    leg_a: Callable[[], tuple[float, Any]],
    leg_b: Callable[[], tuple[float, Any]],
) -> PairedTiming:
    """Time ``repeats`` interleaved (A, B) pairs; each leg returns ``(seconds, result)``."""
    a_samples: list[float] = []
    b_samples: list[float] = []
    ratios: list[float] = []
    a_result = b_result = None
    for _ in range(repeats):
        a_dt, a_result = leg_a()
        b_dt, b_result = leg_b()
        a_samples.append(a_dt)
        b_samples.append(b_dt)
        ratios.append(a_dt / b_dt)
    ratios.sort()
    return PairedTiming(a_samples, b_samples, ratios, a_result, b_result)
