"""Steady-state queueing metrics for open-system (dynamic-arrival) runs.

The paper evaluates its CPU manager as a *closed* batch: a fixed
multiprogramming degree, turnaround measured per workload. Scheduler
evaluations beyond the paper judge policies under sustained job streams
with response-time and slowdown metrics (Sliwko, arXiv:2511.01860;
Feitelson's bounded slowdown). This module holds the *measurement* side of
that open-system capability; the load-generation side lives in
:mod:`repro.dynamic`.

Contents:

* :class:`JobRecord` — one job's lifecycle timestamps (arrival, admission,
  completion) plus its nominal solo service time.
* :class:`DynamicStats` — everything the open-system driver observed in a
  run: job records, queue-length time-average, admission drops, starvation
  watchdog extrema, bus-utilisation time-average. It is a frozen,
  picklable value object that participates in equality — two runs of the
  same seed must produce *identical* stats, which the determinism property
  tests assert.
* :func:`batch_means_ci` — confidence intervals via the method of batch
  means (the standard steady-state output-analysis technique: consecutive
  observations are grouped into batches whose means are approximately
  independent).
* :func:`summarize_queueing` — warmup truncation + derived metrics
  (response time, bounded slowdown, throughput, drop fraction) with CIs
  and p50/p95/p99 quantiles. Works from the full record list when present,
  or from the driver's O(1)-memory :class:`~repro.metrics.streaming.
  StreamingSummary` when records were disabled (``record_jobs=False``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .streaming import StreamingSummary, _t_critical, exact_quantile

__all__ = [
    "JobRecord",
    "DynamicStats",
    "QueueingSummary",
    "batch_means_ci",
    "bounded_slowdown",
    "summarize_queueing",
]


@dataclass(frozen=True)
class JobRecord:
    """Lifecycle of one dynamically-arrived job.

    Attributes
    ----------
    index:
        Position in the arrival schedule (0-based).
    name:
        Application spec name the job instantiated.
    arrival_us:
        When the job arrived at the admission queue.
    admit_us:
        When it was admitted (launched and connected), or ``None`` if it
        was dropped by admission control.
    completion_us:
        When its last thread finished, or ``None`` (dropped, or still in
        service at harness stop — which the driver treats as an error for
        finite schedules).
    nominal_service_us:
        The job's solo execution time on an unloaded machine (its spec's
        per-thread work; threads run in parallel when dedicated), the
        denominator of the slowdown metric.
    app_id:
        Instance id assigned at admission (``None`` for dropped jobs).
    """

    index: int
    name: str
    arrival_us: float
    admit_us: float | None
    completion_us: float | None
    nominal_service_us: float
    app_id: int | None

    @property
    def dropped(self) -> bool:
        """Whether admission control rejected the job."""
        return self.admit_us is None

    @property
    def response_us(self) -> float | None:
        """Arrival → completion (queue wait + service), or ``None``."""
        if self.completion_us is None:
            return None
        return self.completion_us - self.arrival_us

    @property
    def wait_us(self) -> float | None:
        """Arrival → admission queueing delay, or ``None`` if dropped."""
        if self.admit_us is None:
            return None
        return self.admit_us - self.arrival_us


@dataclass(frozen=True)
class DynamicStats:
    """Raw open-system observations of one run (see the module docstring).

    All fields are deterministic functions of the spec + seed, so the
    dataclass participates in equality: the serial-vs-parallel property
    tests compare these bit-for-bit.

    Attributes
    ----------
    jobs:
        One record per scheduled arrival, in arrival order.
    queue_len_time_avg:
        Time-average of the admission queue length over the run.
    max_queue_len:
        Peak admission queue length.
    dropped:
        Jobs rejected because the queue was at capacity.
    max_starvation_age_us:
        Largest observed time any admitted, unfinished job went without
        making CPU progress (the no-starvation watchdog's measurement).
    starvation_bound_us:
        The largest bound the watchdog applied during the run (it scales
        with the number of co-resident jobs).
    starvation_violations:
        Polls at which some job's age exceeded the bound. The paper's
        head-first circular-list rotation guarantees this stays zero.
    utilization_time_avg:
        Mean bus utilisation sampled at the driver's poll cadence.
    saturated_fraction:
        Fraction of poll samples with bus utilisation at or above the
        saturation threshold — the bandwidth-regulation quality signal
        (lower is better at equal throughput).
    horizon_us:
        Simulated time when the stats were collected (run end).
    streaming:
        Constant-size streamed summary fed per-completion by the driver
        (always populated by new runs). When ``record_jobs=False`` demoted
        ``jobs`` to an empty tuple, this is the only measurement left and
        :func:`summarize_queueing` reads from it.
    """

    jobs: tuple[JobRecord, ...]
    queue_len_time_avg: float
    max_queue_len: int
    dropped: int
    max_starvation_age_us: float
    starvation_bound_us: float
    starvation_violations: int
    utilization_time_avg: float
    saturated_fraction: float
    horizon_us: float
    streaming: StreamingSummary | None = None

    @property
    def completed(self) -> list[JobRecord]:
        """Completed jobs in completion order."""
        done = [j for j in self.jobs if j.completion_us is not None]
        return sorted(done, key=lambda j: (j.completion_us, j.index))

    @property
    def n_completed(self) -> int:
        """Number of jobs that ran to completion."""
        return sum(1 for j in self.jobs if j.completion_us is not None)


def batch_means_ci(
    values: Sequence[float],
    n_batches: int = 10,
    confidence: float = 0.95,
) -> tuple[float, float | None]:
    """Mean and CI half-width of ``values`` by the method of batch means.

    Consecutive observations are grouped into ``n_batches`` equal batches
    (order matters: batching whitens the autocorrelation of steady-state
    output series); the CI is a Student-t interval over the batch means.
    With fewer than four observations (or fewer than two batches) the
    half-width is ``None`` — a mean of so few correlated samples has no
    defensible error bar, and ``None`` (unlike the NaN this used to
    return) cannot silently propagate through downstream arithmetic or
    serialise as the string ``"nan"`` in CSV exports. Identical batch
    means legitimately yield a zero-width interval (0.0, not ``None``).

    >>> mean, hw = batch_means_ci([1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0], n_batches=4)
    >>> round(mean, 3)
    1.5
    >>> batch_means_ci([1.0, 2.0])
    (1.5, None)
    >>> batch_means_ci([3.0] * 8, n_batches=4)
    (3.0, 0.0)
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_batches < 2:
        raise ValueError(f"need at least 2 batches, got {n_batches}")
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("no observations")
    if any(not math.isfinite(v) for v in vals):
        raise ValueError("observations must be finite")
    mean = sum(vals) / len(vals)
    k = min(n_batches, len(vals) // 2)
    if len(vals) < 4 or k < 2:
        return (mean, None)
    base, extra = divmod(len(vals), k)
    means = []
    start = 0
    for b in range(k):
        size = base + (1 if b < extra else 0)
        batch = vals[start : start + size]
        start += size
        means.append(sum(batch) / len(batch))
    grand = sum(means) / k
    var = sum((m - grand) ** 2 for m in means) / (k - 1)
    half = _t_critical(k - 1, confidence) * math.sqrt(var / k)
    return (mean, half)


def bounded_slowdown(response_us: float, service_us: float, tau_us: float = 0.0) -> float:
    """Bounded slowdown: ``response / max(service, tau)``, floored at 1.

    ``tau`` keeps very short jobs from dominating the average (a 1 ms job
    delayed by one quantum would otherwise report a slowdown of hundreds);
    ``tau = 0`` reduces to the plain slowdown ratio.

    A zero service time (a degenerate no-work job) is well-defined rather
    than an error: with ``tau > 0`` the bound takes over as usual; with
    ``tau = 0`` the slowdown is 1.0 for an instant response and ``inf``
    otherwise (the mathematical limit), never a ZeroDivisionError or NaN.
    Only *negative* service is rejected.

    >>> bounded_slowdown(300.0, 100.0)
    3.0
    >>> bounded_slowdown(300.0, 10.0, tau_us=100.0)
    3.0
    >>> bounded_slowdown(300.0, 0.0, tau_us=100.0)
    3.0
    >>> bounded_slowdown(0.0, 0.0)
    1.0
    """
    if service_us < 0:
        raise ValueError(f"service time must be non-negative, got {service_us}")
    if response_us < 0:
        raise ValueError("negative response time")
    denom = max(service_us, tau_us)
    if denom <= 0:
        return math.inf if response_us > 0 else 1.0
    return max(1.0, response_us / denom)


@dataclass(frozen=True)
class QueueingSummary:
    """Derived steady-state metrics of one open-system run.

    Attributes
    ----------
    n_jobs / n_completed / n_dropped:
        Schedule size, completions, admission drops.
    drop_fraction:
        ``n_dropped / n_jobs``.
    mean_response_us / response_ci_us:
        Mean response time (arrival → completion) over the post-warmup
        completions, with its batch-means CI half-width (``None`` when
        too few observations for a defensible error bar).
    mean_slowdown / slowdown_ci:
        Mean bounded slowdown and its CI half-width (``None`` likewise).
    mean_wait_us:
        Mean admission-queue delay of post-warmup completions.
    throughput_jobs_per_s:
        Post-warmup completions per simulated second.
    queue_len_time_avg / utilization_time_avg / saturated_fraction:
        Copied from :class:`DynamicStats` (whole-run time averages).
    max_starvation_age_us / starvation_bound_us / starvation_ok:
        Watchdog extrema; ``starvation_ok`` is the no-starvation verdict.
    response_p50_us / response_p95_us / response_p99_us:
        Response-time quantiles over post-warmup completions — exact
        (linear interpolation) when job records are available, P² sketch
        estimates when summarizing a records-off streamed run.
    slowdown_p50 / slowdown_p95 / slowdown_p99:
        Same for bounded slowdown.
    """

    n_jobs: int
    n_completed: int
    n_dropped: int
    drop_fraction: float
    mean_response_us: float
    response_ci_us: float | None
    mean_slowdown: float
    slowdown_ci: float | None
    mean_wait_us: float
    throughput_jobs_per_s: float
    queue_len_time_avg: float
    utilization_time_avg: float
    saturated_fraction: float
    max_starvation_age_us: float
    starvation_bound_us: float
    starvation_ok: bool
    response_p50_us: float | None = None
    response_p95_us: float | None = None
    response_p99_us: float | None = None
    slowdown_p50: float | None = None
    slowdown_p95: float | None = None
    slowdown_p99: float | None = None


def _window_throughput(
    n_kept: int,
    first_us: float,
    last_us: float,
    anchor_us: float | None,
    horizon_us: float,
) -> float:
    """Completions per simulated second over the post-warmup window.

    The primary estimator is the inter-completion rate over the kept
    completions' own span. When every kept completion shares a timestamp
    (span 0) the window has not vanished — the measurement window starts
    at the last warmup completion (``anchor_us``), or at time 0 without
    warmup — so the rate is taken over that window instead of silently
    falling back to the whole-horizon rate (which understated throughput
    exactly when completions were densest). The horizon fallback remains
    only for the genuinely windowless cases (a single kept completion
    with no warmup anchor, or everything at t=0).
    """
    span_us = last_us - first_us
    if n_kept > 1 and span_us > 0:
        return (n_kept - 1) / span_us * 1e6
    if anchor_us is not None and last_us > anchor_us:
        return n_kept / (last_us - anchor_us) * 1e6
    if n_kept > 1 and last_us > 0:
        return n_kept / last_us * 1e6
    return n_kept / horizon_us * 1e6 if horizon_us > 0 else 0.0


def _summarize_streamed(
    stats: DynamicStats,
    warmup_jobs: int,
    n_batches: int,
    confidence: float,
    tau_us: float,
) -> QueueingSummary:
    """Build the summary from the driver's streamed accumulators."""
    s = stats.streaming
    assert s is not None
    requested = (warmup_jobs, n_batches, confidence, tau_us)
    streamed = (s.warmup_jobs, s.n_batches, s.confidence, s.tau_us)
    if requested != streamed:
        raise ValueError(
            "records were disabled for this run; the streamed summary was "
            f"accumulated with (warmup_jobs, n_batches, confidence, tau_us)="
            f"{streamed} and cannot be re-summarized with {requested}"
        )
    if s.n_kept == 0 or s.mean_response_us is None:
        raise ValueError(
            f"no completions left after warmup ({s.n_observed} completed, "
            f"warmup_jobs={warmup_jobs})"
        )
    throughput = _window_throughput(
        s.n_kept,
        s.first_kept_completion_us if s.first_kept_completion_us is not None else 0.0,
        s.last_kept_completion_us if s.last_kept_completion_us is not None else 0.0,
        s.warmup_anchor_us,
        stats.horizon_us,
    )
    return QueueingSummary(
        n_jobs=s.n_scheduled,
        n_completed=s.n_observed,
        n_dropped=stats.dropped,
        drop_fraction=stats.dropped / s.n_scheduled if s.n_scheduled else 0.0,
        mean_response_us=s.mean_response_us,
        response_ci_us=s.response_ci_us,
        mean_slowdown=s.mean_slowdown,
        slowdown_ci=s.slowdown_ci,
        mean_wait_us=s.mean_wait_us,
        throughput_jobs_per_s=throughput,
        queue_len_time_avg=stats.queue_len_time_avg,
        utilization_time_avg=stats.utilization_time_avg,
        saturated_fraction=stats.saturated_fraction,
        max_starvation_age_us=stats.max_starvation_age_us,
        starvation_bound_us=stats.starvation_bound_us,
        starvation_ok=stats.starvation_violations == 0,
        response_p50_us=s.quantile(0.5),
        response_p95_us=s.quantile(0.95),
        response_p99_us=s.quantile(0.99),
        slowdown_p50=s.quantile(0.5, slowdown=True),
        slowdown_p95=s.quantile(0.95, slowdown=True),
        slowdown_p99=s.quantile(0.99, slowdown=True),
    )


def summarize_queueing(
    stats: DynamicStats,
    warmup_jobs: int = 0,
    n_batches: int = 10,
    confidence: float = 0.95,
    tau_us: float = 0.0,
) -> QueueingSummary:
    """Reduce raw open-system observations to steady-state metrics.

    ``warmup_jobs`` completions are discarded (in completion order) before
    averaging — the standard truncation that removes the empty-system
    transient. Queue-length and utilisation averages are whole-run (they
    are already time averages and converge regardless).

    When the run kept no job records (``record_jobs=False``) but carries a
    streamed summary, the metrics come from that instead; the summarize
    parameters must then match the ones the stream was accumulated with
    (the driver wires them from the same ``DynamicWorkload`` fields), and
    the quantiles are P² sketch estimates rather than exact.

    Raises
    ------
    ValueError
        If no job completed after warmup (nothing to summarize), or if a
        records-off run is re-summarized with different parameters.
    """
    if warmup_jobs < 0:
        raise ValueError(f"warmup_jobs must be >= 0, got {warmup_jobs}")
    if not stats.jobs and stats.streaming is not None:
        return _summarize_streamed(stats, warmup_jobs, n_batches, confidence, tau_us)
    done = stats.completed
    kept = done[warmup_jobs:]
    if not kept:
        raise ValueError(
            f"no completions left after warmup ({len(done)} completed, "
            f"warmup_jobs={warmup_jobs})"
        )
    responses = [j.response_us for j in kept]
    slowdowns = [
        bounded_slowdown(j.response_us, j.nominal_service_us, tau_us) for j in kept
    ]
    waits = [j.wait_us for j in kept]
    mean_resp, resp_ci = batch_means_ci(responses, n_batches, confidence)
    mean_slow, slow_ci = batch_means_ci(slowdowns, n_batches, confidence)
    resp_sorted = sorted(responses)
    slow_sorted = sorted(slowdowns)
    anchor = done[warmup_jobs - 1].completion_us if warmup_jobs > 0 else None
    throughput = _window_throughput(
        len(kept),
        kept[0].completion_us,
        kept[-1].completion_us,
        anchor,
        stats.horizon_us,
    )
    return QueueingSummary(
        n_jobs=len(stats.jobs),
        n_completed=stats.n_completed,
        n_dropped=stats.dropped,
        drop_fraction=stats.dropped / len(stats.jobs) if stats.jobs else 0.0,
        mean_response_us=mean_resp,
        response_ci_us=resp_ci,
        mean_slowdown=mean_slow,
        slowdown_ci=slow_ci,
        mean_wait_us=sum(waits) / len(waits),
        throughput_jobs_per_s=throughput,
        queue_len_time_avg=stats.queue_len_time_avg,
        utilization_time_avg=stats.utilization_time_avg,
        saturated_fraction=stats.saturated_fraction,
        max_starvation_age_us=stats.max_starvation_age_us,
        starvation_bound_us=stats.starvation_bound_us,
        starvation_ok=stats.starvation_violations == 0,
        response_p50_us=exact_quantile(resp_sorted, 0.5),
        response_p95_us=exact_quantile(resp_sorted, 0.95),
        response_p99_us=exact_quantile(resp_sorted, 0.99),
        slowdown_p50=exact_quantile(slow_sorted, 0.5),
        slowdown_p95=exact_quantile(slow_sorted, 0.95),
        slowdown_p99=exact_quantile(slow_sorted, 0.99),
    )
