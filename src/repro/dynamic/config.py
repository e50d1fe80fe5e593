"""Configuration of the open-system dynamic workload.

Like every configuration object in :mod:`repro.config`, these are frozen
dataclasses validated eagerly in ``__post_init__`` — an invalid dynamic
workload raises :class:`repro.errors.ConfigError` before any simulation
starts, never deep inside a run. They are plain picklable data so a
:class:`~repro.experiments.base.SimulationSpec` carrying one ships to
``run_many`` worker processes unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..workloads.base import ApplicationSpec
from .arrivals import ArrivalProcess

__all__ = [
    "JobMix",
    "ZipfianMix",
    "DynamicWorkload",
    "paper_mix",
]


@dataclass(frozen=True)
class JobMix:
    """A weighted palette of job templates the driver samples from.

    Subclasses skew the draws (:class:`ZipfianMix`) by overriding
    :meth:`_effective_entries`. The driver samples whole schedules
    through :meth:`sample_many`, which keeps the named-RNG-stream
    determinism contract.

    Attributes
    ----------
    entries:
        ``(spec, weight)`` pairs; weights are relative (they need not sum
        to one). Sampling is deterministic given the rng stream.
    """

    entries: tuple[tuple[ApplicationSpec, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigError("a job mix needs at least one template")
        for spec, weight in self.entries:
            if not isinstance(spec, ApplicationSpec):
                raise ConfigError(f"job mix template must be an ApplicationSpec, got {spec!r}")
            if weight <= 0:
                raise ConfigError(f"job mix weight for {spec.name!r} must be positive, got {weight}")

    def _effective_entries(self) -> tuple[tuple[ApplicationSpec, float], ...]:
        """The ``(spec, weight)`` pairs sampling actually uses."""
        return self.entries

    @property
    def total_weight(self) -> float:
        """Sum of the (effective) relative weights."""
        return sum(w for _, w in self._effective_entries())

    def sample(self, rng: np.random.Generator) -> ApplicationSpec:
        """Draw one template, weight-proportionally."""
        entries = self._effective_entries()
        u = float(rng.random()) * self.total_weight
        acc = 0.0
        for spec, weight in entries:
            acc += weight
            if u < acc:
                return spec
        return entries[-1][0]  # floating-point edge: u == total

    def sample_many(self, rng: np.random.Generator, n: int) -> list[ApplicationSpec]:
        """Draw a whole schedule; the base mix is n independent draws."""
        return [self.sample(rng) for _ in range(n)]


@dataclass(frozen=True)
class ZipfianMix(JobMix):
    """Zipf-skewed draws: entry ``i`` (0-based) reweighted by ``(i+1)^-s``.

    With ``exponent=0`` this reduces to the base mix; larger exponents
    concentrate load on the head of the palette — the classic popularity
    skew of real job streams.
    """

    exponent: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.exponent < 0 or not math.isfinite(self.exponent):
            raise ConfigError(f"zipf exponent must be >= 0, got {self.exponent}")

    def _effective_entries(self) -> tuple[tuple[ApplicationSpec, float], ...]:
        return tuple(
            (spec, w * (i + 1) ** -self.exponent)
            for i, (spec, w) in enumerate(self.entries)
        )


def paper_mix(
    names: list[str] | None = None, work_scale: float = 1.0
) -> JobMix:
    """An equal-weight mix over (a subset of) the paper's applications.

    The default palette spans the demand range — a low-, a mid- and two
    high-bandwidth codes — so arrival streams exercise both the benign
    and the saturated co-scheduling regimes.
    """
    from ..workloads.suites import paper_app

    chosen = names if names is not None else ["Water-nsqr", "LU CB", "SP", "CG"]
    if not chosen:
        raise ConfigError("paper_mix needs at least one application name")
    return JobMix(
        entries=tuple((paper_app(n).scaled(work_scale), 1.0) for n in chosen)
    )


@dataclass(frozen=True)
class DynamicWorkload:
    """Everything the open-system driver needs, in one validated object.

    Attributes
    ----------
    arrivals:
        The arrival process (Poisson / MMPP / trace replay).
    mix:
        Job-template palette sampled per arrival.
    n_jobs:
        Jobs in the schedule (a trace shorter than this bounds it). The
        run ends when every admitted job has completed and the queue is
        empty — a finite schedule keeps open-system runs bounded.
    max_in_service:
        Admission cap: at most this many dynamic jobs are connected at
        once (the multiprogramming-degree analogue). Arrivals beyond it
        wait in the admission queue.
    queue_capacity:
        Admission queue slots, or ``None`` for an unbounded queue. With a
        bounded queue, arrivals finding it full are *dropped* and counted
        (drop-tail backpressure accounting).
    poll_period_us:
        Cadence of the driver's watchdog/utilisation sampling events.
    watchdog_factor:
        The no-starvation bound: an admitted job must make CPU progress at
        least every ``factor × quantum × co_resident_jobs`` microseconds.
        The paper's head-first circular-list rotation guarantees service
        within one full rotation; the factor is the slack for signal
        latency and partial-width packing.
    watchdog_strict:
        Raise :class:`repro.errors.SchedulingError` on a watchdog
        violation instead of only counting it.
    warmup_frac:
        Fraction of completions truncated as warmup when summarizing.
    slowdown_tau_us:
        Bounded-slowdown threshold (see
        :func:`repro.metrics.queueing.bounded_slowdown`).
    saturation_threshold:
        Bus-utilisation level above which a poll sample counts as
        saturated (the regulation-quality metric).
    record_jobs:
        Keep the per-job :class:`~repro.metrics.queueing.JobRecord` list
        (default). Disable for large-n sweeps: the driver then reports
        only the O(1)-memory streamed summary
        (:class:`repro.metrics.streaming.StreamingSummary`), so metric
        memory stays flat no matter how many jobs the schedule holds.
    """

    arrivals: ArrivalProcess
    mix: JobMix
    n_jobs: int = 30
    max_in_service: int = 4
    queue_capacity: int | None = None
    poll_period_us: float = 50_000.0
    watchdog_factor: float = 4.0
    watchdog_strict: bool = False
    warmup_frac: float = 0.1
    slowdown_tau_us: float = 10_000.0
    saturation_threshold: float = 0.9
    record_jobs: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.arrivals, ArrivalProcess):
            raise ConfigError(f"arrivals must be an ArrivalProcess, got {self.arrivals!r}")
        if not isinstance(self.mix, JobMix):
            raise ConfigError(f"mix must be a JobMix, got {self.mix!r}")
        if self.n_jobs < 1:
            raise ConfigError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.max_in_service < 1:
            raise ConfigError(f"max_in_service must be >= 1, got {self.max_in_service}")
        if self.queue_capacity is not None and self.queue_capacity < 0:
            raise ConfigError(f"queue_capacity must be >= 0, got {self.queue_capacity}")
        if self.poll_period_us <= 0:
            raise ConfigError(f"poll_period_us must be positive, got {self.poll_period_us}")
        if self.watchdog_factor <= 0:
            raise ConfigError(f"watchdog_factor must be positive, got {self.watchdog_factor}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ConfigError(f"warmup_frac must be in [0, 1), got {self.warmup_frac}")
        if self.slowdown_tau_us < 0:
            raise ConfigError(f"slowdown_tau_us must be >= 0, got {self.slowdown_tau_us}")
        if not 0.0 < self.saturation_threshold <= 1.0:
            raise ConfigError(
                f"saturation_threshold must be in (0, 1], got {self.saturation_threshold}"
            )

    def warmup_jobs(self) -> int:
        """Completions to truncate before steady-state averaging."""
        return int(self.n_jobs * self.warmup_frac)

    def starvation_bound_us(self, quantum_us: float, co_resident: int) -> float:
        """The watchdog bound for ``co_resident`` simultaneously-live jobs."""
        return self.watchdog_factor * quantum_us * max(1, co_resident)
