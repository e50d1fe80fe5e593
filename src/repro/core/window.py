"""Rate estimators: moving window and exponentially-weighted average.

The Quanta Window policy smooths each application's observed bus
transaction rate over "a window of previous samples"; the paper uses 5
samples, chosen so that "the average distance between the observed
transactions pattern and the moving window average [is limited] to 5 % for
applications with irregular bus bandwidth requirements". It also notes that
wider windows "would require techniques such as exponential reduction of
the weight of older samples" — the EWMA estimator implements exactly that
suggested extension.
"""

from __future__ import annotations

import math
from collections import deque

__all__ = ["MovingWindow", "EwmaEstimator"]


def _require_finite(sample: float) -> float:
    """Reject NaN/inf samples before they poison an estimator.

    A single NaN pushed into a moving window makes every subsequent
    average NaN (and an EWMA never recovers); the estimators fail fast
    instead. Negative rates are the *caller's* responsibility to clamp
    (the CPU manager sanitises at the ``on_sample`` boundary) — they are
    accepted here because the estimators are generic accumulators.
    """
    value = float(sample)
    if not math.isfinite(value):
        raise ValueError(f"estimator sample must be finite, got {value}")
    return value


class MovingWindow:
    """Fixed-length moving average over the most recent samples.

    Parameters
    ----------
    length:
        Window size in samples (paper: 5). Until the window fills, the
        average is over the samples seen so far.

    Examples
    --------
    >>> w = MovingWindow(3)
    >>> for x in (1.0, 2.0, 3.0, 4.0):
    ...     w.push(x)
    >>> w.average()
    3.0
    """

    def __init__(self, length: int) -> None:
        if length < 1:
            raise ValueError(f"window length must be >= 1, got {length}")
        self._buf: deque[float] = deque(maxlen=length)
        self._last_update_time: float | None = None

    @property
    def last_update_time(self) -> float | None:
        """Timestamp of the last timestamped push, or ``None``.

        Staleness tracking: callers that pass ``time_us`` to :meth:`push`
        can ask *when* the estimate was last refreshed without reaching
        into the owner's bookkeeping. Untimestamped pushes leave it
        unchanged.
        """
        return self._last_update_time

    def push(self, sample: float, time_us: float | None = None) -> None:
        """Add one sample, evicting the oldest if the window is full.

        ``time_us``, when given, records when the sample was taken (see
        :attr:`last_update_time`).

        Raises
        ------
        ValueError
            If the sample is NaN or infinite.
        """
        self._buf.append(_require_finite(sample))
        if time_us is not None:
            self._last_update_time = float(time_us)

    def average(self) -> float | None:
        """Mean of the held samples, or ``None`` before the first push."""
        if not self._buf:
            return None
        return sum(self._buf) / len(self._buf)

    def maximum(self) -> float | None:
        """Largest held sample, or ``None`` before the first push.

        Used by the model-driven policy's peak-rate prediction: planning
        co-schedules against the highest recently observed demand is
        conservative for bursty jobs.
        """
        return max(self._buf) if self._buf else None


class EwmaEstimator:
    """Exponentially-weighted moving average (the paper's suggested extension).

    ``estimate ← alpha · sample + (1 − alpha) · estimate``. Unlike the
    fixed window it never fully forgets, but old samples decay
    geometrically — allowing an effectively wide window while retaining
    responsiveness (the trade-off the paper discusses for window sizing).

    Parameters
    ----------
    alpha:
        Weight of the newest sample, in (0, 1].

    Examples
    --------
    >>> e = EwmaEstimator(0.5)
    >>> e.push(4.0); e.push(8.0)
    >>> e.average()
    6.0
    """

    def __init__(self, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self._alpha = alpha
        self._value: float | None = None
        self._last_update_time: float | None = None

    @property
    def last_update_time(self) -> float | None:
        """Timestamp of the last timestamped push, or ``None``.

        Same contract as :attr:`MovingWindow.last_update_time`.
        """
        return self._last_update_time

    def push(self, sample: float, time_us: float | None = None) -> None:
        """Fold one sample into the estimate.

        ``time_us``, when given, records when the sample was taken (see
        :attr:`last_update_time`).

        Raises
        ------
        ValueError
            If the sample is NaN or infinite.
        """
        value = _require_finite(sample)
        if self._value is None:
            self._value = value
        else:
            self._value = self._alpha * value + (1.0 - self._alpha) * self._value
        if time_us is not None:
            self._last_update_time = float(time_us)

    def average(self) -> float | None:
        """Current estimate, or ``None`` before the first push."""
        return self._value
