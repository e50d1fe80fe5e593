"""Measurement: per-run accounting, derived statistics, timelines.

* :mod:`repro.metrics.accounting` — per-application and per-run result
  records extracted from a finished simulation.
* :mod:`repro.metrics.stats` — derived quantities: slowdowns, turnaround
  improvements, workload summaries (the numbers the paper's figures plot).
* :mod:`repro.metrics.timeline` — periodic sampling of bus utilisation and
  running sets over simulated time.
* :mod:`repro.metrics.queueing` — steady-state open-system metrics
  (response time, bounded slowdown, batch-means confidence intervals) for
  dynamic-arrival runs driven by :mod:`repro.dynamic`.
* :mod:`repro.metrics.streaming` — O(1)-memory accumulators (P² quantile
  sketch, Welford, collapsing batch means) behind ``record_jobs=False``.
"""

from .accounting import AppResult, RunResult, collect_run_result
from .queueing import (
    DynamicStats,
    JobRecord,
    QueueingSummary,
    batch_means_ci,
    bounded_slowdown,
    summarize_queueing,
)
from .streaming import (
    P2Quantile,
    StreamingBatchMeans,
    StreamingQueueingStats,
    StreamingSummary,
    Welford,
)
from .stats import (
    geometric_mean,
    improvement_percent,
    slowdown,
    summarize_improvements,
)
from .timeline import TimelineSampler, TimelinePoint

__all__ = [
    "AppResult",
    "RunResult",
    "collect_run_result",
    "slowdown",
    "improvement_percent",
    "geometric_mean",
    "summarize_improvements",
    "TimelineSampler",
    "TimelinePoint",
    "DynamicStats",
    "JobRecord",
    "QueueingSummary",
    "batch_means_ci",
    "bounded_slowdown",
    "summarize_queueing",
    "P2Quantile",
    "StreamingBatchMeans",
    "StreamingQueueingStats",
    "StreamingSummary",
    "Welford",
]
