"""Live service statistics: the ``GET /v1/stats`` payload.

Counters split into three layers, mirroring where the numbers live:

* **queue** — current depth, per-tenant backlogs, accept/reject
  accounting (owned by :class:`repro.service.jobs.FairQueue`);
* **dispatch** — in-flight count, executed runs, failures, cancellations
  (owned by :class:`repro.service.jobs.SimulationService`);
* **cache / store** — lookups, hits, hit rate, persistent status counts
  and executed wall-time aggregates (owned by
  :class:`repro.service.store.ResultStore`).

Everything is monotone counters or instantaneous gauges — no sampling,
no windows — so the endpoint is cheap enough to poll aggressively and
the ``service-smoke`` CI job can assert exact values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ServiceStats"]


@dataclass
class ServiceStats:
    """Snapshot of the service's operational state.

    Attributes
    ----------
    queue_depth:
        Jobs currently waiting (across all tenants).
    queue_capacity:
        Bounded depth limit the queue rejects beyond.
    queued_by_tenant:
        Per-tenant backlog (fair-queueing visibility).
    in_flight:
        Jobs currently executing in the worker pool.
    submitted / accepted / rejected_full / rejected_invalid /
    rejected_rate_limited / cancelled:
        Submission accounting: everything that arrived, what was
        enqueued, what bounced off the full queue (503), what failed
        validation (400), what the per-tenant rate limiter shed (429),
        what a drain-less shutdown cancelled.
    executed_runs / failed_runs / quarantined_runs:
        Simulations actually run to completion / to an error / dead-
        lettered after exhausting their worker-crash attempt budget.
    recovered_requeued / recovered_quarantined / recovered_failed:
        Restart-recovery dispositions of rows orphaned by previous
        service processes on the same results dir (``failed``: the
        stored spec no longer validates).
    cache_lookups / cache_hits:
        Spec-hash cache traffic; ``cache_hit_rate`` derives from these.
    store_counts:
        Persistent per-status row counts (includes prior service lives).
    wall_time:
        Executed wall-time aggregates from the store
        (``executed_runs`` / ``total_wall_s`` / ``mean_wall_s`` /
        ``max_wall_s``).
    draining:
        Whether shutdown has begun (submissions are rejected).
    """

    queue_depth: int = 0
    queue_capacity: int = 0
    queued_by_tenant: dict[str, int] = field(default_factory=dict)
    in_flight: int = 0
    submitted: int = 0
    accepted: int = 0
    rejected_full: int = 0
    rejected_invalid: int = 0
    rejected_rate_limited: int = 0
    cancelled: int = 0
    executed_runs: int = 0
    failed_runs: int = 0
    quarantined_runs: int = 0
    recovered_requeued: int = 0
    recovered_quarantined: int = 0
    recovered_failed: int = 0
    cache_lookups: int = 0
    cache_hits: int = 0
    store_counts: dict[str, int] = field(default_factory=dict)
    wall_time: dict[str, float] = field(default_factory=dict)
    draining: bool = False

    @property
    def cache_hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        return self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0

    def to_dict(self) -> dict[str, Any]:
        """The stats-endpoint body."""
        return {
            "queue": {
                "depth": self.queue_depth,
                "capacity": self.queue_capacity,
                "by_tenant": dict(sorted(self.queued_by_tenant.items())),
            },
            "dispatch": {
                "in_flight": self.in_flight,
                "submitted": self.submitted,
                "accepted": self.accepted,
                "rejected_full": self.rejected_full,
                "rejected_invalid": self.rejected_invalid,
                "rejected_rate_limited": self.rejected_rate_limited,
                "cancelled": self.cancelled,
                "executed_runs": self.executed_runs,
                "failed_runs": self.failed_runs,
                "quarantined_runs": self.quarantined_runs,
                "recovered_requeued": self.recovered_requeued,
                "recovered_quarantined": self.recovered_quarantined,
                "recovered_failed": self.recovered_failed,
                "draining": self.draining,
            },
            "cache": {
                "lookups": self.cache_lookups,
                "hits": self.cache_hits,
                "hit_rate": self.cache_hit_rate,
            },
            "store": dict(sorted(self.store_counts.items())),
            "wall_time": dict(self.wall_time),
        }
