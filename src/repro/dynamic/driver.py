"""The open-system workload driver: arrivals, admission, lifecycle, watchdog.

This is the load-generation layer the paper's online CPU manager implies
but its experiments never exercise: jobs *arrive* over time, queue for
admission, connect to the manager mid-simulation, run to completion and
disconnect — churning the circular list and the signal protocol exactly
the way a long-lived server would see.

The driver is an event-driven component layered on the existing engine:

* **Arrivals** — the schedule (times × job templates) is sampled once, at
  build time, from named :mod:`repro.rng` streams, so it is bit-identical
  between serial and ``run_many`` execution.
* **Admission** — at most ``max_in_service`` dynamic jobs are connected at
  once; excess arrivals wait in a FIFO queue (optionally bounded, with
  drop-tail accounting). Completions admit the head of the queue — the
  open-system analogue of the paper's fixed multiprogramming degree.
* **Lifecycle** — admitted jobs are launched, registered with the CPU
  manager (when one runs) and handed to the kernel; thread-exit listeners
  detect completion with exact timestamps and trigger disconnection and
  queue drain.
* **Watchdog** — a starvation-age monitor asserting the paper's
  no-starvation guarantee: every admitted, unfinished job must make CPU
  progress at least once per ``watchdog_factor × quantum × co-resident
  jobs`` microseconds (the head-first circular-list rotation bounds the
  wait by one full rotation).
* **Measurement** — queue-length time-average, bus-utilisation samples and
  the per-job lifecycle records that :mod:`repro.metrics.queueing` reduces
  to response times and bounded slowdowns.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterator

from ..errors import ConfigError, SchedulingError
from ..metrics.queueing import DynamicStats, JobRecord
from ..metrics.streaming import StreamingQueueingStats
from ..sim.events import EventPriority
from ..workloads.base import Application
from .config import DynamicWorkload

if TYPE_CHECKING:  # pragma: no cover
    from ..core.manager import CpuManager
    from ..hw.machine import Machine
    from ..rng import RngRegistry
    from ..sched.base import KernelScheduler
    from ..sim.engine import Engine

__all__ = ["OpenSystemDriver"]


class _LiveJob:
    """Mutable lifecycle state of one scheduled arrival (driver-internal)."""

    __slots__ = (
        "index",
        "spec",
        "arrival_us",
        "admit_us",
        "completion_us",
        "app_id",
        "dropped",
        "tids",
        "last_progress_us",
        "last_runtime_us",
    )

    def __init__(self, index: int, spec, arrival_us: float) -> None:
        self.index = index
        self.spec = spec
        self.arrival_us = arrival_us
        self.admit_us: float | None = None
        self.completion_us: float | None = None
        self.app_id: int | None = None
        self.dropped = False
        self.tids: list[int] = []
        self.last_progress_us = 0.0
        self.last_runtime_us = 0.0

    def record(self) -> JobRecord:
        return JobRecord(
            index=self.index,
            name=self.spec.name,
            arrival_us=self.arrival_us,
            admit_us=self.admit_us,
            completion_us=self.completion_us,
            nominal_service_us=self.spec.work_per_thread_us,
            app_id=self.app_id,
        )


class OpenSystemDriver:
    """Drives a :class:`~repro.dynamic.config.DynamicWorkload` through a run.

    Parameters
    ----------
    workload:
        The validated dynamic-workload description.
    machine / engine / registry:
        The simulation fabric (the driver adds exit listeners and events).
    manager:
        The CPU manager, or ``None`` for kernel-only (e.g. plain Linux)
        runs — admitted jobs then simply join the kernel's runqueues.
    kernel:
        The kernel scheduler (receives ``on_new_threads`` at admission).
    app_ids:
        The run-local application-id counter shared with the static
        workload builder, keeping ids deterministic and collision-free.
    quantum_ref_us:
        The scheduling granularity the watchdog bound scales with (the
        manager quantum, or the kernel time slice for manager-less runs).
    n_static_apps:
        Statically-launched applications co-resident with dynamic jobs
        (they occupy rotation slots, so they widen the starvation bound).
    """

    def __init__(
        self,
        workload: DynamicWorkload,
        machine: "Machine",
        engine: "Engine",
        registry: "RngRegistry",
        manager: "CpuManager | None",
        kernel: "KernelScheduler",
        app_ids: Iterator[int],
        quantum_ref_us: float,
        n_static_apps: int = 0,
    ) -> None:
        if quantum_ref_us <= 0:
            raise ConfigError(f"quantum_ref_us must be positive, got {quantum_ref_us}")
        for spec, _ in workload.mix.entries:
            if spec.n_threads > machine.n_cpus:
                raise ConfigError(
                    f"job template {spec.name!r} is wider ({spec.n_threads}) than "
                    f"the machine ({machine.n_cpus} CPUs)"
                )
        self.workload = workload
        self._machine = machine
        self._engine = engine
        self._registry = registry
        self._manager = manager
        self._kernel = kernel
        self._app_ids = app_ids
        self._quantum_ref_us = quantum_ref_us
        self._n_static_apps = n_static_apps

        # The whole schedule is fixed up front from named rng streams:
        # bit-identical no matter which process replays it.
        arr_rng = registry.stream("dynamic.arrivals")
        times = workload.arrivals.sample_times(arr_rng, workload.n_jobs)
        mix_rng = registry.stream("dynamic.mix")
        specs = workload.mix.sample_many(mix_rng, len(times))
        self._jobs = [
            _LiveJob(i, spec, t) for i, (spec, t) in enumerate(zip(specs, times))
        ]
        # Streamed metrics are always accumulated (they consume no RNG and
        # cost O(1) memory); with record_jobs=False they are the only
        # measurement that survives into DynamicStats.
        self._stream = StreamingQueueingStats(
            warmup_jobs=workload.warmup_jobs(),
            tau_us=workload.slowdown_tau_us,
        )
        self._arrived = 0
        self._queue: deque[int] = deque()  # job indices, FIFO
        self._in_service: dict[int, _LiveJob] = {}  # app_id → job
        self._tid_to_job: dict[int, _LiveJob] = {}
        self._dropped = 0
        #: Every Application instance admitted so far, in admission order
        #: (the harness folds these into the run's accounting).
        self.launched_apps: list[Application] = []

        # Queue-length integral (piecewise constant between transitions).
        self._queue_integral = 0.0
        self._queue_last_t = 0.0
        self._max_queue_len = 0

        # Watchdog / utilisation accumulators.
        self._max_age_us = 0.0
        self._max_bound_us = 0.0
        self._violations = 0
        self._util_sum = 0.0
        self._util_samples = 0
        self._saturated_samples = 0

        machine.add_exit_listener(self._handle_exit)

    # ------------------------------------------------------------------ wiring

    def start(self) -> None:
        """Schedule every arrival and the first watchdog poll."""
        for job in self._jobs:
            self._engine.schedule_at(
                job.arrival_us,
                lambda j=job: self._arrive(j),
                priority=EventPriority.DEFAULT,
            )
        self._engine.schedule_after(
            self.workload.poll_period_us, self._poll, priority=EventPriority.OBSERVER
        )

    @property
    def all_done(self) -> bool:
        """Every scheduled job arrived and either completed or was dropped."""
        return (
            self._arrived == len(self._jobs)
            and not self._queue
            and not self._in_service
        )

    @property
    def n_scheduled(self) -> int:
        """Jobs in the (possibly trace-bounded) arrival schedule."""
        return len(self._jobs)

    @property
    def schedule_span_us(self) -> float:
        """The last arrival plus every scheduled job's standalone CPU work.

        Run back to back on one CPU at standalone speed, every job would
        be done by then. The harness extends its safety limit by this
        span, so a long schedule (100k jobs at 0.5/s arrive over ~55 h)
        is not cut short by a limit fixed in advance.
        """
        last = max((j.arrival_us for j in self._jobs), default=0.0)
        return last + sum(j.spec.work_per_thread_us * j.spec.n_threads for j in self._jobs)

    # ------------------------------------------------------------------ arrivals

    def _arrive(self, job: _LiveJob) -> None:
        self._arrived += 1
        now = self._machine.now
        self._machine.trace.record(now, "dynamic.arrive", index=job.index, app=job.spec.name)
        if len(self._in_service) < self.workload.max_in_service:
            self._admit(job)
            return
        cap = self.workload.queue_capacity
        if cap is not None and len(self._queue) >= cap:
            job.dropped = True
            self._dropped += 1
            self._machine.trace.record(now, "dynamic.drop", index=job.index, app=job.spec.name)
            return
        self._touch_queue(now)
        self._queue.append(job.index)
        self._max_queue_len = max(self._max_queue_len, len(self._queue))

    def _admit(self, job: _LiveJob) -> None:
        now = self._machine.now
        app = Application.launch(
            job.spec,
            self._machine,
            self._registry.stream(f"dynamic.job{job.index}.{job.spec.name}"),
            app_id=next(self._app_ids),
        )
        job.admit_us = now
        job.app_id = app.app_id
        job.tids = list(app.tids)
        job.last_progress_us = now
        job.last_runtime_us = 0.0
        self._in_service[app.app_id] = job
        self.launched_apps.append(app)
        for tid in job.tids:
            self._tid_to_job[tid] = job
        self._machine.trace.record(
            now, "dynamic.admit", index=job.index, app=job.spec.name, app_id=app.app_id
        )
        if self._manager is not None:
            self._manager.register_app(app)
        self._kernel.on_new_threads()

    def _drain_queue(self) -> None:
        while self._queue and len(self._in_service) < self.workload.max_in_service:
            now = self._machine.now
            self._touch_queue(now)
            index = self._queue.popleft()
            self._admit(self._jobs[index])

    # ------------------------------------------------------------------ lifecycle

    def _handle_exit(self, thread) -> None:
        job = self._tid_to_job.get(thread.tid)
        if job is None or job.completion_us is not None:
            return
        if not all(self._machine.thread(t).finished for t in job.tids):
            return
        # Exit listeners fire while the machine may be ahead of the engine
        # clock; record the exact completion time now, defer the admission
        # side effects to a same-instant engine event (the scheduler-base
        # deferral idiom).
        job.completion_us = max(self._machine.thread(t).finished_at for t in job.tids)
        self._stream.observe(
            arrival_us=job.arrival_us,
            admit_us=job.admit_us,
            completion_us=job.completion_us,
            nominal_service_us=job.spec.work_per_thread_us,
        )
        self._engine.schedule_at(
            self._machine.now, lambda: self._reap(job), priority=EventPriority.DEFAULT
        )

    def _reap(self, job: _LiveJob) -> None:
        if job.app_id in self._in_service:
            del self._in_service[job.app_id]
        for tid in job.tids:
            self._tid_to_job.pop(tid, None)
        self._machine.trace.record(
            self._machine.now, "dynamic.complete", index=job.index, app=job.spec.name
        )
        if self._manager is not None:
            # The manager may already have reaped it at a quantum boundary;
            # disconnect_app is a no-op for disconnected applications.
            self._manager.disconnect_app(job.app_id)
        self._drain_queue()

    # ------------------------------------------------------------------ sampling

    def _touch_queue(self, now: float) -> None:
        if now > self._queue_last_t:
            self._queue_integral += len(self._queue) * (now - self._queue_last_t)
            self._queue_last_t = now

    def _poll(self) -> None:
        now = self._machine.now
        self._touch_queue(now)
        # Bandwidth-regulation quality: time-sampled bus utilisation.
        util = self._machine.bus_utilisation
        self._util_sum += util
        self._util_samples += 1
        if util >= self.workload.saturation_threshold:
            self._saturated_samples += 1
        # Starvation watchdog over the admitted, unfinished jobs.
        co_resident = self._n_static_apps + len(self._in_service)
        bound = self.workload.starvation_bound_us(self._quantum_ref_us, co_resident)
        self._max_bound_us = max(self._max_bound_us, bound)
        for job in self._in_service.values():
            runtime = sum(self._machine.thread(t).run_time_us for t in job.tids)
            if runtime > job.last_runtime_us + 1e-9:
                job.last_runtime_us = runtime
                job.last_progress_us = now
            age = now - job.last_progress_us
            self._max_age_us = max(self._max_age_us, age)
            if age > bound:
                self._violations += 1
                self._machine.trace.record(
                    now, "dynamic.starvation", index=job.index, age_us=age, bound_us=bound
                )
                if self.workload.watchdog_strict:
                    raise SchedulingError(
                        f"starvation watchdog: job {job.index} ({job.spec.name}) "
                        f"made no progress for {age:.0f}µs (bound {bound:.0f}µs)"
                    )
        if not self.all_done:
            self._engine.schedule_after(
                self.workload.poll_period_us, self._poll, priority=EventPriority.OBSERVER
            )

    # ------------------------------------------------------------------ results

    def stats(self) -> DynamicStats:
        """Freeze the run's observations into a picklable value object."""
        now = self._machine.now
        self._touch_queue(now)
        horizon = max(now, 1e-12)
        record_jobs = self.workload.record_jobs
        return DynamicStats(
            jobs=tuple(job.record() for job in self._jobs) if record_jobs else (),
            queue_len_time_avg=self._queue_integral / horizon,
            max_queue_len=self._max_queue_len,
            dropped=self._dropped,
            max_starvation_age_us=self._max_age_us,
            starvation_bound_us=self._max_bound_us,
            starvation_violations=self._violations,
            utilization_time_avg=(
                self._util_sum / self._util_samples if self._util_samples else 0.0
            ),
            saturated_fraction=(
                self._saturated_samples / self._util_samples if self._util_samples else 0.0
            ),
            horizon_us=now,
            streaming=self._stream.snapshot(
                n_scheduled=len(self._jobs), n_dropped=self._dropped
            ),
        )
