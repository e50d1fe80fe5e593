"""Streaming (O(1)-memory) accumulators for open-system queueing metrics.

At millions of jobs the per-job :class:`~repro.metrics.queueing.JobRecord`
list and the list-based batch-means CI cannot fit in memory.  This module
provides the constant-memory building blocks:

- :class:`P2Quantile` — the P² online quantile sketch of Jain & Chlamtac
  (CACM 1985): five markers tracked with parabolic interpolation.  Exact
  for the first five observations; afterwards the estimate for quantile
  ``q`` is documented to stay within the **rank envelope** ``q ± 0.1`` of
  the exact empirical distribution (i.e. the reported value lies between
  the exact ``q - 0.1`` and ``q + 0.1`` empirical quantiles) for the
  well-behaved distributions these sweeps produce.  Tests enforce that
  envelope.
- :class:`Welford` — running mean / variance (numerically stable).
- :class:`StreamingBatchMeans` — batch-means confidence intervals without
  retaining the sample.  Below a small buffer threshold it delegates to
  the exact list-based :func:`~repro.metrics.queueing.batch_means_ci`
  (bit-identical for every small run in the repo); past the threshold it
  switches to collapsing batches whose size doubles as data accumulate.
- :class:`StreamingQueueingStats` — the per-completion sink fed by
  ``OpenSystemDriver``; snapshots into a :class:`StreamingSummary` that
  `summarize_queueing` can consume when no job records were retained.

Also home to the Student-t critical value (:func:`_t_critical`) that
``repro.metrics.queueing`` shares.

>>> sketch = P2Quantile(0.5)
>>> for x in [5.0, 1.0, 3.0, 2.0, 4.0]:
...     sketch.add(x)
>>> sketch.value()
3.0
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "P2Quantile",
    "Welford",
    "StreamingBatchMeans",
    "StreamingQueueingStats",
    "StreamingSummary",
]

# Quantiles reported by the dynamic sweeps: median plus the two tail
# points the open-system scheduling literature cares about.
REPORTED_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)

# Documented P² accuracy bound, in rank (quantile) units: the sketch's
# estimate for quantile q must lie between the exact empirical quantiles
# at q - P2_RANK_TOLERANCE and q + P2_RANK_TOLERANCE.
P2_RANK_TOLERANCE = 0.1


def _t_critical(df: int, confidence: float) -> float:
    """Two-sided Student-t critical value (scipy is a hard dependency)."""
    from scipy import stats

    return float(stats.t.ppf(0.5 + confidence / 2.0, df))


def exact_quantile(sorted_values: list[float], q: float) -> float:
    """Linearly interpolated empirical quantile of a pre-sorted sample.

    Matches numpy's default ("linear") quantile method.

    >>> exact_quantile([1.0, 2.0, 3.0, 4.0], 0.5)
    2.5
    """
    if not sorted_values:
        raise ValueError("cannot take a quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    h = (n - 1) * q
    lo = int(math.floor(h))
    if lo >= n - 1:
        return sorted_values[-1]
    frac = h - lo
    return sorted_values[lo] + frac * (sorted_values[lo + 1] - sorted_values[lo])


class Welford:
    """Running mean and variance (Welford's online algorithm)."""

    __slots__ = ("n", "mean", "_m2")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)

    def variance(self) -> float | None:
        """Sample (n-1) variance; None until two observations exist."""
        if self.n < 2:
            return None
        return self._m2 / (self.n - 1)

    def std(self) -> float | None:
        var = self.variance()
        return None if var is None else math.sqrt(var)


class P2Quantile:
    """P² online estimator for a single quantile (Jain & Chlamtac 1985).

    Five markers track the min, the target quantile, the two mid
    quantiles and the max; marker heights are adjusted with a piecewise
    parabolic (fallback linear) fit as observations stream in.  Exact
    while n <= 5.  Accuracy bound: see ``P2_RANK_TOLERANCE``.
    """

    __slots__ = ("q", "_n", "_initial", "_heights", "_pos", "_desired", "_inc")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._n = 0
        self._initial: list[float] = []
        self._heights: list[float] | None = None
        self._pos: list[float] = []
        self._desired: list[float] = []
        self._inc: tuple[float, ...] = ()

    @property
    def n(self) -> int:
        return self._n

    def add(self, x: float) -> None:
        if not math.isfinite(x):
            raise ValueError(f"P2Quantile requires finite observations, got {x!r}")
        self._n += 1
        if self._heights is None:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                q = self.q
                self._heights = list(self._initial)
                self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
                self._inc = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)
            return
        h = self._heights
        pos = self._pos
        if x < h[0]:
            h[0] = x
            cell = 0
        elif x >= h[4]:
            h[4] = x
            cell = 3
        else:
            cell = 0
            for i in range(1, 4):
                if x >= h[i]:
                    cell = i
        for i in range(cell + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._inc[i]
        for i in range(1, 4):
            d = self._desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                pos[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, pos = self._heights, self._pos
        assert h is not None
        return h[i] + d / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + d) * (h[i + 1] - h[i]) / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - d) * (h[i] - h[i - 1]) / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, pos = self._heights, self._pos
        assert h is not None
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (pos[j] - pos[i])

    def value(self) -> float | None:
        """Current quantile estimate; None before any observation."""
        if self._n == 0:
            return None
        if self._heights is None:
            return exact_quantile(sorted(self._initial), self.q)
        return self._heights[2]


class StreamingBatchMeans:
    """Batch-means mean/CI accumulator with bounded memory.

    While at most ``4 * n_batches`` observations have arrived, the raw
    sample is buffered and the result delegates to the exact list-based
    :func:`repro.metrics.queueing.batch_means_ci` — bit-identical to the
    pre-streaming implementation for every small sweep in the repo.
    Past the threshold the buffer is folded into ``n_batches`` batches
    and subsequent observations extend a collapsing scheme: whenever
    ``2 * n_batches`` complete batches accumulate, adjacent pairs merge
    and the batch size doubles, so memory stays O(n_batches) while the
    CI remains a valid batch-means interval (df = #batches - 1).

    The point mean is a plain running sum in arrival order, bit-identical
    to ``sum(values) / len(values)``.
    """

    __slots__ = (
        "n_batches",
        "confidence",
        "_buffer",
        "_sum",
        "_n",
        "_welford",
        "_batch_sums",
        "_batch_size",
        "_partial_sum",
        "_partial_n",
    )

    def __init__(self, n_batches: int = 10, confidence: float = 0.95) -> None:
        if n_batches < 2:
            raise ValueError(f"n_batches must be >= 2, got {n_batches}")
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        self.n_batches = n_batches
        self.confidence = confidence
        self._buffer: list[float] | None = []
        self._sum = 0.0
        self._n = 0
        self._welford = Welford()
        self._batch_sums: list[float] = []
        self._batch_size = 0
        self._partial_sum = 0.0
        self._partial_n = 0

    @property
    def n(self) -> int:
        return self._n

    def add(self, x: float) -> None:
        if not math.isfinite(x):
            raise ValueError(f"batch means require finite values, got {x!r}")
        self._n += 1
        self._sum += x
        self._welford.add(x)
        if self._buffer is not None:
            self._buffer.append(x)
            if len(self._buffer) > 4 * self.n_batches:
                self._spill()
            return
        self._partial_sum += x
        self._partial_n += 1
        if self._partial_n == self._batch_size:
            self._push_batch(self._partial_sum / self._partial_n)
            self._partial_sum = 0.0
            self._partial_n = 0

    def _spill(self) -> None:
        """Fold the exact buffer into fixed-size batches and go streaming."""
        buf = self._buffer
        assert buf is not None
        self._buffer = None
        self._batch_size = 4
        for start in range(0, len(buf) - len(buf) % self._batch_size, self._batch_size):
            chunk = buf[start : start + self._batch_size]
            self._push_batch(sum(chunk) / len(chunk))
        tail = buf[len(buf) - len(buf) % self._batch_size :]
        self._partial_sum = sum(tail)
        self._partial_n = len(tail)

    def _push_batch(self, batch_mean: float) -> None:
        self._batch_sums.append(batch_mean)
        if len(self._batch_sums) >= 2 * self.n_batches:
            self._batch_sums = [
                (self._batch_sums[i] + self._batch_sums[i + 1]) / 2.0
                for i in range(0, len(self._batch_sums) - 1, 2)
            ]
            self._batch_size *= 2

    def mean(self) -> float | None:
        if self._n == 0:
            return None
        return self._sum / self._n

    def std(self) -> float | None:
        """Sample standard deviation of the raw observations."""
        return self._welford.std()

    def result(self) -> tuple[float, float | None] | None:
        """``(mean, ci_half_width)`` or None when no data has arrived.

        The half-width is None while the sample is too small for a
        meaningful interval (mirrors ``batch_means_ci``).
        """
        if self._n == 0:
            return None
        if self._buffer is not None:
            from .queueing import batch_means_ci

            return batch_means_ci(
                self._buffer, n_batches=self.n_batches, confidence=self.confidence
            )
        mean = self._sum / self._n
        means = list(self._batch_sums)
        if self._partial_n:
            means.append(self._partial_sum / self._partial_n)
        k = len(means)
        if k < 2:
            return mean, None
        grand = sum(means) / k
        var = sum((m - grand) ** 2 for m in means) / (k - 1)
        half = _t_critical(k - 1, self.confidence) * math.sqrt(var / k)
        return mean, half


@dataclass(frozen=True)
class StreamingSummary:
    """Constant-size snapshot of a :class:`StreamingQueueingStats`.

    Quantile fields are ``((q, estimate), ...)`` pairs so the set of
    tracked quantiles serializes with the data.  All fields are plain
    scalars/tuples: the summary participates in dataclass equality and
    round-trips through the service JSON layer.
    """

    warmup_jobs: int
    n_batches: int
    confidence: float
    tau_us: float
    n_scheduled: int
    n_dropped: int
    n_observed: int
    n_kept: int
    mean_response_us: float | None
    response_ci_us: float | None
    response_std_us: float | None
    mean_slowdown: float | None
    slowdown_ci: float | None
    mean_wait_us: float | None
    response_quantiles_us: tuple[tuple[float, float], ...]
    slowdown_quantiles: tuple[tuple[float, float], ...]
    first_kept_completion_us: float | None
    last_kept_completion_us: float | None
    warmup_anchor_us: float | None

    def quantile(self, q: float, *, slowdown: bool = False) -> float | None:
        """Look up a tracked quantile estimate (None if not tracked)."""
        pairs = self.slowdown_quantiles if slowdown else self.response_quantiles_us
        for key, value in pairs:
            if key == q:
                return value
        return None


class StreamingQueueingStats:
    """Per-completion queueing-metric sink with O(1) memory.

    ``OpenSystemDriver`` calls :meth:`observe` once per completed job in
    completion order.  The first ``warmup_jobs`` completions are
    discarded (their last completion time is kept as the measurement
    window anchor); the rest feed batch-means accumulators for response
    time and bounded slowdown, P² sketches for the quantiles in
    ``REPORTED_QUANTILES``, and a running mean of admission wait.
    """

    __slots__ = (
        "warmup_jobs",
        "n_batches",
        "confidence",
        "tau_us",
        "_n_observed",
        "_response",
        "_slowdown",
        "_wait_sum",
        "_response_sketches",
        "_slowdown_sketches",
        "_first_kept_us",
        "_last_kept_us",
        "_warmup_anchor_us",
    )

    def __init__(
        self,
        warmup_jobs: int = 0,
        n_batches: int = 10,
        confidence: float = 0.95,
        tau_us: float = 0.0,
    ) -> None:
        if warmup_jobs < 0:
            raise ValueError(f"warmup_jobs must be >= 0, got {warmup_jobs}")
        if tau_us < 0.0:
            raise ValueError(f"tau_us must be >= 0, got {tau_us}")
        self.warmup_jobs = warmup_jobs
        self.n_batches = n_batches
        self.confidence = confidence
        self.tau_us = tau_us
        self._n_observed = 0
        self._response = StreamingBatchMeans(n_batches, confidence)
        self._slowdown = StreamingBatchMeans(n_batches, confidence)
        self._wait_sum = 0.0
        self._response_sketches = tuple(P2Quantile(q) for q in REPORTED_QUANTILES)
        self._slowdown_sketches = tuple(P2Quantile(q) for q in REPORTED_QUANTILES)
        self._first_kept_us: float | None = None
        self._last_kept_us: float | None = None
        self._warmup_anchor_us: float | None = None

    @property
    def n_observed(self) -> int:
        return self._n_observed

    @property
    def n_kept(self) -> int:
        return self._response.n

    def observe(
        self,
        arrival_us: float,
        admit_us: float,
        completion_us: float,
        nominal_service_us: float,
    ) -> None:
        from .queueing import bounded_slowdown

        self._n_observed += 1
        if self._n_observed <= self.warmup_jobs:
            self._warmup_anchor_us = completion_us
            return
        response = completion_us - arrival_us
        wait = admit_us - arrival_us
        slow = bounded_slowdown(response, nominal_service_us, tau_us=self.tau_us)
        if self._first_kept_us is None:
            self._first_kept_us = completion_us
        self._last_kept_us = completion_us
        self._response.add(response)
        self._slowdown.add(slow)
        self._wait_sum += wait
        for sketch in self._response_sketches:
            sketch.add(response)
        for sketch in self._slowdown_sketches:
            sketch.add(slow)

    def snapshot(self, n_scheduled: int, n_dropped: int) -> StreamingSummary:
        kept = self._response.n
        resp = self._response.result()
        slow = self._slowdown.result()
        return StreamingSummary(
            warmup_jobs=self.warmup_jobs,
            n_batches=self.n_batches,
            confidence=self.confidence,
            tau_us=self.tau_us,
            n_scheduled=n_scheduled,
            n_dropped=n_dropped,
            n_observed=self._n_observed,
            n_kept=kept,
            mean_response_us=resp[0] if resp else None,
            response_ci_us=resp[1] if resp else None,
            response_std_us=self._response.std(),
            mean_slowdown=slow[0] if slow else None,
            slowdown_ci=slow[1] if slow else None,
            mean_wait_us=self._wait_sum / kept if kept else None,
            response_quantiles_us=tuple(
                (s.q, v)
                for s in self._response_sketches
                if (v := s.value()) is not None
            ),
            slowdown_quantiles=tuple(
                (s.q, v)
                for s in self._slowdown_sketches
                if (v := s.value()) is not None
            ),
            first_kept_completion_us=self._first_kept_us,
            last_kept_completion_us=self._last_kept_us,
            warmup_anchor_us=self._warmup_anchor_us,
        )
