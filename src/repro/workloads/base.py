"""Application specifications and running instances.

An :class:`ApplicationSpec` is a reusable, immutable description of a
(parallel) program: thread count, per-thread work, demand pattern, cache
footprint, migration sensitivity. :class:`Application` is one *instance* of
a spec whose threads have been registered with a :class:`~repro.hw.machine.
Machine`; experiment workloads are lists of instances (the paper runs two
instances of the target application side by side).

Thread-level demand: the paper reports *cumulative* rates for two-thread
runs in Figure 1A; specs store the per-thread pattern, so a spec built from
a paper figure divides the cumulative rate by the thread count (see
:mod:`repro.workloads.suites`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from ..errors import WorkloadError
from .patterns import DemandPattern

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.machine import Machine, ThreadState

__all__ = ["ApplicationSpec", "Application"]

_instance_counter = itertools.count(1)


@dataclass(frozen=True)
class ApplicationSpec:
    """Reusable description of a parallel application.

    Attributes
    ----------
    name:
        Human-readable name ("CG", "Raytrace", "BBMA", ...).
    n_threads:
        Number of threads an instance spawns (paper applications: 2;
        microbenchmarks: 1).
    work_per_thread_us:
        Solo execution time of each thread on an unloaded machine, in µs
        (the unit of work).
    pattern:
        Per-thread demand pattern (unloaded tx/µs as a function of work).
    footprint_lines:
        Working-set size in cache lines. Larger than the L2 for streaming
        codes (never warm), smaller for cache-resident ones.
    migration_sensitivity:
        Extra rebuild-debt multiplier applied on cross-CPU migration;
        models codes whose performance depends on accumulated cache state
        (paper: LU CB with its 99.53 % hit ratio, Water-nsqr).
    io_interval_work_us:
        Work between I/O waits per thread, or ``None`` for CPU-bound codes
        (all of the paper's applications). Enables the paper's future-work
        "I/O and network-intensive workloads".
    io_duration_us:
        Duration of each I/O wait (the thread releases its CPU).
    """

    name: str
    n_threads: int
    work_per_thread_us: float
    pattern: DemandPattern
    footprint_lines: float = 4096.0
    migration_sensitivity: float = 0.0
    io_interval_work_us: float | None = None
    io_duration_us: float = 0.0

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise WorkloadError(f"{self.name!r}: need at least one thread")
        if not 0 < self.work_per_thread_us < math.inf:
            raise WorkloadError(f"{self.name!r}: work must be positive and finite")
        if self.footprint_lines < 0:
            raise WorkloadError(f"{self.name!r}: negative footprint")
        if self.migration_sensitivity < 0:
            raise WorkloadError(f"{self.name!r}: negative migration sensitivity")
        if self.io_interval_work_us is not None and self.io_interval_work_us <= 0:
            raise WorkloadError(f"{self.name!r}: io interval must be positive")
        if self.io_duration_us < 0:
            raise WorkloadError(f"{self.name!r}: negative io duration")

    def scaled(self, work_scale: float) -> "ApplicationSpec":
        """A copy with per-thread work multiplied by ``work_scale``.

        Benchmarks use this to shrink experiments while preserving rates.
        """
        if work_scale <= 0:
            raise WorkloadError("work_scale must be positive")
        return replace(self, work_per_thread_us=self.work_per_thread_us * work_scale)


@dataclass
class Application:
    """One running instance of a spec, bound to a machine.

    Attributes
    ----------
    spec:
        The application description.
    app_id:
        Unique instance id (assigned at creation).
    threads:
        The instance's :class:`~repro.hw.machine.ThreadState` objects.
    """

    spec: ApplicationSpec
    app_id: int
    threads: list["ThreadState"] = field(default_factory=list)

    @classmethod
    def launch(
        cls,
        spec: ApplicationSpec,
        machine: "Machine",
        rng: np.random.Generator,
        instance_tag: str | None = None,
        app_id: int | None = None,
    ) -> "Application":
        """Create an instance of ``spec`` and register its threads.

        Each thread binds its own demand process (bursty patterns get
        independent but seed-deterministic traces).

        ``app_id`` defaults to a process-global counter; callers that need
        run-deterministic ids (the experiment harness, so results are
        bit-identical no matter which worker process runs the simulation)
        pass an explicit per-run id instead. Ids must be unique within a
        machine.
        """
        if app_id is None:
            app_id = next(_instance_counter)
        app = cls(spec=spec, app_id=app_id)
        tag = instance_tag or f"{spec.name}#{app_id}"
        for i in range(spec.n_threads):
            process = spec.pattern.bind(rng)
            state = machine.add_thread(
                name=f"{tag}.t{i}",
                demand=process,
                work_total=spec.work_per_thread_us,
                app_id=app_id,
                footprint_lines=spec.footprint_lines,
                migration_sensitivity=spec.migration_sensitivity,
                io_interval_work_us=spec.io_interval_work_us,
                io_duration_us=spec.io_duration_us,
            )
            app.threads.append(state)
        return app

    @property
    def name(self) -> str:
        """The spec name."""
        return self.spec.name

    @property
    def n_threads(self) -> int:
        """Thread count of the instance."""
        return self.spec.n_threads

    @property
    def tids(self) -> list[int]:
        """Thread ids of the instance."""
        return [t.tid for t in self.threads]

    @property
    def finished(self) -> bool:
        """Whether every thread has completed."""
        return all(t.finished for t in self.threads)

    @property
    def turnaround_us(self) -> float | None:
        """Completion time of the last thread, or ``None`` if unfinished.

        All threads start at t=0 in the experiments, so this equals the
        turnaround time the paper reports.
        """
        if not self.finished:
            return None
        return max(t.finished_at for t in self.threads)  # type: ignore[type-var]

    def blocked(self) -> bool:
        """Whether the instance is currently blocked (any thread blocked).

        The CPU manager blocks and unblocks whole applications; mixed
        states exist only transiently while signals are in flight.
        """
        return any(t.blocked for t in self.threads)
