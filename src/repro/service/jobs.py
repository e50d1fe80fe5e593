"""Job queue, tenant fairness and the dispatching service core.

Three pieces:

* :class:`FairQueue` — a bounded in-process queue with *per-tenant
  round-robin fairness*: each tenant has its own FIFO, and the dispatcher
  drains tenants in rotation, so one tenant flooding a thousand sweeps
  cannot starve another's single run (the many-tenant grid workload of
  Eremeev et al., arXiv:2010.16058, is exactly this shape). Offers beyond
  the bounded depth raise :class:`QueueFullError` and are counted —
  drop/reject accounting is part of the contract, mirroring the
  simulator's own admission queue (:class:`repro.dynamic.DynamicWorkload.
  queue_capacity`).

* :class:`Job` — one accepted submission: the validated spec, its
  canonical hash, and its store identity.

* :class:`SimulationService` — the long-running core: submit → validate
  → spec-hash cache lookup → enqueue; a dispatcher thread drains fair
  batches into :func:`repro.parallel.run_many` (chunked dispatch, the
  per-spec ``on_result`` hook marks each run done with its measured wall
  time the moment it lands, and the ``cancel`` hook implements graceful
  drain); results persist to the :class:`~repro.service.store.
  ResultStore`. The HTTP layer in :mod:`repro.service.api` is a thin
  veneer over this class — everything is testable in-process.

Determinism: execution goes through the same
:func:`~repro.experiments.base.run_simulation` path as the library
(``run_many`` is bit-identical serial vs parallel), so a result served
by the service equals a direct in-process run of the same spec.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass

from ..codec import SpecValidationError
from ..config import canonical_json
from ..errors import ExecutionError, ReproError
from ..experiments.base import SimulationSpec
from ..metrics.accounting import RunResult
from ..parallel import SupervisionConfig, run_many
from .ratelimit import RateLimitConfig, RateLimiter
from .schemas import (
    SubmitRequest,
    parse_submit_request,
    spec_dict_hash,
    spec_from_dict,
    spec_to_dict,
)
from .stats import ServiceStats
from .store import ResultStore, RunRecord

__all__ = [
    "FairQueue",
    "Job",
    "QueueFullError",
    "ServiceClosedError",
    "SimulationService",
]


class QueueFullError(ReproError):
    """The bounded job queue is at capacity (HTTP 503).

    Saturation, not rate: the client should back off substantially or
    spread load, unlike the per-tenant
    :class:`~repro.service.ratelimit.RateLimitedError` (429) which names
    a concrete ``Retry-After``.
    """


class ServiceClosedError(ReproError):
    """The service is draining or stopped and accepts no new work (503)."""


@dataclass
class Job:
    """One accepted submission travelling from queue to worker."""

    run_id: str
    tenant: str
    spec: SimulationSpec
    spec_hash: str
    label: str | None = None


class FairQueue:
    """Bounded multi-tenant queue with round-robin draining.

    Parameters
    ----------
    capacity:
        Total queued jobs across all tenants; offers beyond it raise
        :class:`QueueFullError`. Per-tenant hoarding is already limited
        by fairness, so a single global bound suffices.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._tenants: dict[str, deque[Job]] = {}
        self._rotation: deque[str] = deque()  # tenants with pending jobs
        self._depth = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        # Accounting (monotone; read by the stats endpoint).
        self.offered = 0
        self.accepted = 0
        self.rejected_full = 0

    @property
    def depth(self) -> int:
        """Jobs currently queued."""
        with self._lock:
            return self._depth

    def by_tenant(self) -> dict[str, int]:
        """Current backlog per tenant (empty tenants omitted)."""
        with self._lock:
            return {t: len(q) for t, q in self._tenants.items() if q}

    def offer(self, job: Job) -> None:
        """Enqueue, or raise :class:`QueueFullError` at capacity."""
        with self._lock:
            self.offered += 1
            if self._depth >= self.capacity:
                self.rejected_full += 1
                raise QueueFullError(
                    f"queue full ({self._depth}/{self.capacity} jobs); retry later"
                )
            queue = self._tenants.get(job.tenant)
            if queue is None:
                queue = self._tenants[job.tenant] = deque()
            if not queue:
                self._rotation.append(job.tenant)
            queue.append(job)
            self._depth += 1
            self.accepted += 1
            self._not_empty.notify()

    def _pop_locked(self) -> Job:
        tenant = self._rotation.popleft()
        queue = self._tenants[tenant]
        job = queue.popleft()
        self._depth -= 1
        if queue:
            self._rotation.append(tenant)  # back of the rotation: fairness
        return job

    def take_batch(self, max_jobs: int, timeout: float | None = None) -> list[Job]:
        """Up to ``max_jobs`` jobs in fair rotation order.

        Blocks up to ``timeout`` seconds for the first job (``None``
        waits indefinitely); never blocks for the rest of the batch.
        Returns ``[]`` on timeout — the dispatcher uses that to poll its
        stop flag.
        """
        with self._lock:
            if self._depth == 0 and not self._not_empty.wait(timeout=timeout):
                return []
            batch: list[Job] = []
            while self._rotation and len(batch) < max_jobs:
                batch.append(self._pop_locked())
            return batch

    def drain_all(self) -> list[Job]:
        """Remove and return every queued job (drain-less shutdown)."""
        with self._lock:
            jobs = []
            while self._rotation:
                jobs.append(self._pop_locked())
            return jobs

    def wake(self) -> None:
        """Wake a blocked :meth:`take_batch` (shutdown path)."""
        with self._lock:
            self._not_empty.notify_all()


class SimulationService:
    """The long-running submit/queue/poll core (one per process).

    Parameters
    ----------
    store:
        Persistent run/result store (shared across service restarts).
    queue_depth:
        Bounded queue capacity; submissions beyond it are rejected with
        :class:`QueueFullError` and counted.
    jobs:
        Worker processes per dispatched batch, forwarded to
        :func:`repro.parallel.run_many` (``1`` = serial in the
        dispatcher thread; ``<= 0`` = the effective CPU budget).
    batch_size:
        Jobs drained per dispatch cycle (default: ``max(4, jobs)``).
        Larger batches amortise fork cost through ``run_many`` chunking;
        smaller ones tighten per-job latency.
    cache:
        Serve identical resubmissions (same
        :meth:`~repro.experiments.base.SimulationSpec.spec_hash`) from
        the store instead of re-running. Per-request ``no_cache``
        overrides.
    max_attempts:
        Executions a spec may be charged before it is quarantined —
        both by the supervised pool (isolation retries, with the
        :class:`~repro.parallel.SupervisionConfig` deadline defaults;
        inert when ``jobs=1``) and by the restart-recovery pass
        (store-level ``attempts``).
    rate_limit:
        Optional per-tenant token-bucket config
        (:class:`~repro.service.ratelimit.RateLimitConfig`); ``None``
        disables rate limiting (queue-depth backpressure only).
    max_in_flight:
        Global cap on jobs dispatched per cycle, bounding how much work
        a drain must wait out. ``None`` leaves ``batch_size`` in charge.
    lease_s:
        Advisory execution lease recorded at ``mark_running``; ``None``
        derives it from the supervision timeout ceiling.
    """

    def __init__(
        self,
        store: ResultStore,
        queue_depth: int = 256,
        jobs: int | None = 1,
        batch_size: int | None = None,
        cache: bool = True,
        max_attempts: int = 3,
        rate_limit: RateLimitConfig | None = None,
        max_in_flight: int | None = None,
        lease_s: float | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self.store = store
        self.queue = FairQueue(capacity=queue_depth)
        self.jobs = jobs
        self.batch_size = batch_size if batch_size is not None else max(4, jobs or 1)
        self.cache_enabled = cache
        self.max_attempts = max_attempts
        self.supervise = SupervisionConfig(max_attempts=max_attempts)
        self.max_in_flight = max_in_flight
        self.lease_s = float(lease_s) if lease_s is not None else self.supervise.timeout_ceiling_s
        self.limiter = None if rate_limit is None else RateLimiter(rate_limit)
        self._lock = threading.Lock()
        self._in_flight: dict[str, Job] = {}
        self._stopping = False
        self._accepting = True
        self._idle = threading.Condition(self._lock)
        self._thread: threading.Thread | None = None
        # Accounting (under self._lock).
        self._submitted = 0
        self._rejected_invalid = 0
        self._cancelled = 0
        self._executed = 0
        self._failed = 0
        self._quarantined = 0
        self._cache_lookups = 0
        self._cache_hits = 0
        self._recovered_requeued = 0
        self._recovered_quarantined = 0
        self._recovered_failed = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SimulationService":
        """Start the dispatcher thread (idempotent); returns self.

        Runs the restart-recovery pass first, so rows orphaned by a
        previous (crashed or killed) service process are back in the
        queue before the dispatcher takes its first batch.
        """
        if self._thread is None or not self._thread.is_alive():
            self._stopping = False
            self._accepting = True
            self.recover()
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="repro-service-dispatch", daemon=True
            )
            self._thread.start()
        return self

    def recover(self) -> dict[str, int]:
        """Re-disposition store rows orphaned by a previous process.

        The store has a single owner (this process), so on a fresh start
        *every* non-terminal row is orphaned — no executor can still be
        running it, whatever its lease says. Disposition:

        * ``attempts >= max_attempts`` → ``quarantined`` (the row has
          already been granted its full execution budget across previous
          service lives; the last error, if any, is preserved);
        * ``running`` with budget left → back to ``queued`` (attempts
          stay charged) and re-enqueued;
        * ``queued`` with budget left → re-enqueued as-is;
        * a stored spec that no longer validates (say, it names a
          scheduler this version removed) → ``failed`` with the
          validation error's path and message, so one stale row cannot
          keep the service from starting.

        Skipped entirely when this process already has live queue or
        in-flight state (an in-process restart — those rows have a live
        owner). Returns and records
        ``{"requeued": n, "quarantined": n, "failed": n}``.
        """
        summary = {"requeued": 0, "quarantined": 0, "failed": 0}
        if self.queue.depth > 0 or self._in_flight:
            return summary
        for record in self.store.pending_runs():
            if record.attempts >= self.max_attempts:
                prior = f": last error: {record.error}" if record.error else ""
                self.store.mark_quarantined(
                    record.run_id,
                    error=(
                        f"exhausted {record.attempts} execution attempts across"
                        f" service restarts{prior}"
                    ),
                )
                summary["quarantined"] += 1
                continue
            try:
                spec = spec_from_dict(json.loads(self.store.get_spec_json(record.run_id)))
            except SpecValidationError as exc:
                self.store.mark_failed(
                    record.run_id, f"stored spec no longer validates: {exc}"
                )
                summary["failed"] += 1
                continue
            if record.status == "running":
                self.store.requeue(record.run_id)
            job = Job(
                run_id=record.run_id,
                tenant=record.tenant,
                spec=spec,
                spec_hash=record.spec_hash,
                label=record.label,
            )
            try:
                self.queue.offer(job)
            except QueueFullError:
                # A backlog bigger than the queue cannot be readmitted
                # whole; the overflow is terminal rather than silently
                # stranded (the client can resubmit, and will likely be
                # cache-served once the admitted portion completes).
                self.store.mark_cancelled(record.run_id)
                with self._lock:
                    self._cancelled += 1
                continue
            summary["requeued"] += 1
        with self._lock:
            self._recovered_requeued += summary["requeued"]
            self._recovered_quarantined += summary["quarantined"]
            self._recovered_failed += summary["failed"]
        return summary

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop the service.

        ``drain=True`` (graceful): stop accepting submissions, let the
        queue empty and in-flight work finish, then stop the dispatcher.
        ``drain=False``: additionally cancel every queued job (marked
        ``cancelled`` in the store) and ask ``run_many`` to stop
        dispatching further specs between chunks.

        Returns whether the dispatcher fully stopped within ``timeout``.
        """
        with self._lock:
            self._accepting = False
            if not drain:
                self._stopping = True
        if not drain:
            for job in self.queue.drain_all():
                with self._lock:
                    self._cancelled += 1
                self.store.mark_cancelled(job.run_id)
        else:
            # Wait for the backlog to empty before flipping the stop flag.
            with self._idle:
                self._idle.wait_for(
                    lambda: self.queue.depth == 0 and not self._in_flight,
                    timeout=timeout,
                )
            with self._lock:
                self._stopping = True
        self.queue.wake()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            return not thread.is_alive()
        return True

    @property
    def running(self) -> bool:
        """Whether the dispatcher thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    # -- submission ----------------------------------------------------------

    def submit(self, payload: dict) -> dict:
        """Validate and accept one submission; the 202-response body.

        Raises :class:`~repro.service.schemas.SpecValidationError` (400),
        :class:`~repro.service.ratelimit.RateLimitedError` (429 +
        ``Retry-After``), :class:`QueueFullError` (503) or
        :class:`ServiceClosedError` (503). On a cache hit the returned
        status is already terminal (``cached``) and no work is enqueued.
        """
        with self._lock:
            self._submitted += 1
        try:
            request = parse_submit_request(payload)
        except Exception:
            with self._lock:
                self._rejected_invalid += 1
            raise
        return self.submit_request(request)

    def submit_request(self, request: SubmitRequest) -> dict:
        """As :meth:`submit`, for an already-validated request."""
        if not self._accepting:
            raise ServiceClosedError("service is draining; not accepting submissions")
        if self.limiter is not None:
            # Shed before any store row exists: a rate-limited submission
            # leaves no trace beyond the limiter's reject counter.
            self.limiter.acquire(request.tenant)
        spec_dict = spec_to_dict(request.spec)
        spec_hash = spec_dict_hash(spec_dict)
        spec_json = canonical_json(spec_dict)
        record = self.store.create(
            spec_hash=spec_hash,
            spec_json=spec_json,
            tenant=request.tenant,
            label=request.label,
        )

        if self.cache_enabled and not request.no_cache:
            with self._lock:
                self._cache_lookups += 1
            source = self.store.lookup_cached(spec_hash)
            if source is not None:
                self.store.mark_cached(record.run_id, source)
                with self._lock:
                    self._cache_hits += 1
                return {
                    "run_id": record.run_id,
                    "status": "cached",
                    "spec_hash": spec_hash,
                    "cached": True,
                    "cached_from": source.run_id,
                }

        job = Job(
            run_id=record.run_id,
            tenant=request.tenant,
            spec=request.spec,
            spec_hash=spec_hash,
            label=request.label,
        )
        try:
            self.queue.offer(job)
        except QueueFullError:
            self.store.mark_cancelled(job.run_id)
            raise
        return {
            "run_id": record.run_id,
            "status": "queued",
            "spec_hash": spec_hash,
            "cached": False,
        }

    # -- queries -------------------------------------------------------------

    def poll(self, run_id: str) -> dict:
        """The run's current lifecycle record (store-backed)."""
        return self.store.get(run_id).to_dict()

    def result(self, run_id: str) -> RunResult | None:
        """The decoded result, or ``None`` while pending."""
        return self.store.get_result(run_id)

    def list_runs(
        self, tenant: str | None = None, status: str | None = None, limit: int = 100
    ) -> list[dict]:
        """Run history, newest first."""
        return [r.to_dict() for r in self.store.list_runs(tenant, status, limit)]

    def stats(self) -> ServiceStats:
        """Live operational snapshot (see :class:`ServiceStats`)."""
        with self._lock:
            snap = ServiceStats(
                queue_depth=self.queue.depth,
                queue_capacity=self.queue.capacity,
                queued_by_tenant=self.queue.by_tenant(),
                in_flight=len(self._in_flight),
                submitted=self._submitted,
                accepted=self.queue.accepted,
                rejected_full=self.queue.rejected_full,
                rejected_invalid=self._rejected_invalid,
                rejected_rate_limited=(
                    0 if self.limiter is None else self.limiter.rejected
                ),
                cancelled=self._cancelled,
                executed_runs=self._executed,
                failed_runs=self._failed,
                quarantined_runs=self._quarantined,
                recovered_requeued=self._recovered_requeued,
                recovered_quarantined=self._recovered_quarantined,
                recovered_failed=self._recovered_failed,
                cache_lookups=self._cache_lookups,
                cache_hits=self._cache_hits,
                draining=not self._accepting,
            )
        snap.store_counts = self.store.counts()
        snap.wall_time = self.store.wall_time_stats()
        return snap

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopping:
                    return
            # The global in-flight cap bounds how much work one dispatch
            # cycle can own — and hence how long a graceful drain waits.
            allowance = self.batch_size
            if self.max_in_flight is not None:
                with self._lock:
                    allowance = min(allowance, self.max_in_flight - len(self._in_flight))
            if allowance < 1:
                time.sleep(0.02)  # pragma: no cover - dispatch is synchronous today
                continue
            batch = self.queue.take_batch(allowance, timeout=0.2)
            if not batch:
                with self._idle:
                    self._idle.notify_all()
                continue
            self._run_batch(batch)
            with self._idle:
                self._idle.notify_all()

    def _run_batch(self, batch: list[Job]) -> None:
        with self._lock:
            for job in batch:
                self._in_flight[job.run_id] = job
        for job in batch:
            self.store.mark_running(job.run_id, lease_s=self.lease_s)
        pending = batch
        while pending:
            try:
                self._execute_batch(pending)
            except ExecutionError as exc:
                # Supervision attributed a worker crash / hang to exactly
                # one spec and exhausted its retry budget: dead-letter it
                # (attempt count from the supervisor — it saw the
                # attributable isolation runs) and keep running the rest.
                job = pending[exc.spec_index]
                self.store.mark_quarantined(
                    job.run_id, error=str(exc), attempts=exc.attempts
                )
                with self._lock:
                    self._quarantined += 1
                    self._in_flight.pop(job.run_id, None)
                pending = [
                    j for j in pending if self.store.get(j.run_id).status == "running"
                ]
                continue
            except Exception:
                # A worker error without a spec attribution (serial path,
                # or a deterministic spec failure mid-chunk). Runs are
                # deterministic, so replay serially, one guarded spec at
                # a time (already-completed runs were marked done by
                # on_result and are skipped).
                self._run_batch_isolated(pending)
            return

    def _execute_batch(self, batch: list[Job]) -> None:
        """One supervised ``run_many`` pass over ``batch`` (all running)."""

        def _on_result(index: int, result: RunResult, wall_s: float) -> None:
            job = batch[index]
            self.store.mark_done(job.run_id, result, wall_time_s=wall_s)
            with self._lock:
                self._executed += 1
                self._in_flight.pop(job.run_id, None)

        def _cancelled() -> bool:
            with self._lock:
                return self._stopping

        results = run_many(
            [job.spec for job in batch],
            jobs=self.jobs,
            on_result=_on_result,
            cancel=_cancelled,
            supervise=self.supervise,
        )
        # Specs skipped by a cancel hook come back as None: mark them.
        for job, result in zip(batch, results):
            if result is None and self.store.get(job.run_id).status == "running":
                self.store.mark_cancelled(job.run_id)
                with self._lock:
                    self._cancelled += 1
                    self._in_flight.pop(job.run_id, None)

    def _run_batch_isolated(self, batch: list[Job]) -> None:
        """Replay a failed batch one spec at a time, attributing errors."""
        for index, job in enumerate(batch):
            if self.store.get(job.run_id).status != "running":
                continue  # finished (or cancelled) before the batch failed

            def _on_result(i: int, result: RunResult, wall_s: float, job=job) -> None:
                self.store.mark_done(job.run_id, result, wall_time_s=wall_s)
                with self._lock:
                    self._executed += 1
                    self._in_flight.pop(job.run_id, None)

            try:
                run_many([job.spec], jobs=1, on_result=_on_result)
            except Exception as exc:
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                self.store.mark_failed(job.run_id, detail)
                with self._lock:
                    self._failed += 1
                    self._in_flight.pop(job.run_id, None)

    # -- convenience ---------------------------------------------------------

    def wait(self, run_id: str, timeout: float = 60.0, poll_s: float = 0.02) -> RunRecord:
        """Block until the run reaches a terminal state (tests, scripts)."""
        import time as _time

        deadline = _time.monotonic() + timeout
        while True:
            record = self.store.get(run_id)
            if record.terminal:
                return record
            if _time.monotonic() >= deadline:
                raise TimeoutError(f"run {run_id} still {record.status!r} after {timeout}s")
            _time.sleep(poll_s)
