"""Exception hierarchy for the :mod:`repro` package.

Every error the library raises deliberately derives from
:class:`ReproError`, so callers can catch the whole family with one clause
while still distinguishing configuration mistakes from runtime protocol
violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the :mod:`repro` library."""


class ConfigError(ReproError):
    """A configuration object is internally inconsistent.

    Raised eagerly at construction time (``__post_init__``) so that invalid
    machines, policies or experiments never start running.
    """


class SimulationError(ReproError):
    """The simulation engine detected an impossible state.

    Examples: time moving backwards, settling a negative interval, an event
    scheduled in the past.
    """


class SchedulingError(ReproError):
    """A scheduler or policy violated its own contract.

    Examples: dispatching the same thread on two CPUs, gang-allocating a job
    whose threads do not fit, blocking an unknown application.
    """


class ArenaError(ReproError):
    """Violation of the CPU-manager shared-arena protocol.

    Examples: publishing samples for a disconnected application, reading a
    descriptor that was never connected.
    """


class CounterError(ReproError):
    """Misuse of the performance-monitoring counter API.

    Examples: reading a counter for an unknown thread, a counter observed to
    decrease (counters are monotone by construction).
    """


class WorkloadError(ReproError):
    """A workload description is invalid.

    Examples: negative demand rate, zero-length phase, application with no
    threads.
    """


class ExecutionError(ReproError):
    """A parallel :func:`repro.parallel.run_many` spec failed terminally.

    Base of the worker-supervision failure family. Unlike an exception a
    spec *raises* (which propagates as itself), these describe failures of
    the execution substrate — a worker process dying or hanging — that the
    supervisor retried up to its attempt cap before giving up. The
    ``spec_index`` attribute points at the offending spec's position in
    the submitted sequence, so callers (the simulation service, sweep
    harnesses) can attribute the failure to one run and keep the rest.
    """

    def __init__(self, spec_index: int, attempts: int, message: str) -> None:
        self.spec_index = int(spec_index)
        self.attempts = int(attempts)
        super().__init__(message)


class WorkerCrashError(ExecutionError):
    """A worker process died while executing one spec (attempt cap hit).

    Raised by a parallel ``run_many`` after the spec crashed its
    isolation worker ``attempts`` times in a row (``BrokenProcessPool`` /
    a worker killed by a signal). Deterministic simulations never crash
    workers on their own, so this points at a poisoned spec or external
    process kills — either way the spec is not retried further.
    """

    def __init__(self, spec_index: int, attempts: int, message: str | None = None) -> None:
        super().__init__(
            spec_index,
            attempts,
            message
            or f"spec {spec_index} crashed its worker process on all {attempts} attempts",
        )

    def __reduce__(self):
        return (type(self), (self.spec_index, self.attempts, str(self)))


class RunTimeoutError(ExecutionError):
    """One spec exceeded its supervised wall-clock timeout (attempt cap hit).

    Carries the timeout that was in force for the final attempt
    (``timeout_s``) alongside the spec index and attempt count. The
    timed-out worker process was killed; the simulation has no partial
    result.
    """

    def __init__(
        self,
        spec_index: int,
        attempts: int,
        timeout_s: float,
        message: str | None = None,
    ) -> None:
        self.timeout_s = float(timeout_s)
        super().__init__(
            spec_index,
            attempts,
            message
            or (
                f"spec {spec_index} exceeded its {self.timeout_s:.1f}s wall-clock "
                f"timeout on all {attempts} attempts"
            ),
        )

    def __reduce__(self):
        return (type(self), (self.spec_index, self.attempts, self.timeout_s, str(self)))


class AuditViolation(ReproError):
    """A runtime invariant check (:mod:`repro.audit`) failed.

    Carries the check name, the simulated time of the failure and a detail
    mapping, so a violation raised inside a ``run_many`` worker process
    arrives in the parent with its full context intact (the exception
    pickles through the standard ``(check, time_us, details)`` argument
    tuple).
    """

    def __init__(self, check: str, time_us: float, details: dict | None = None) -> None:
        self.check = check
        self.time_us = float(time_us)
        self.details = dict(details or {})
        extra = ", ".join(f"{k}={v!r}" for k, v in sorted(self.details.items()))
        message = f"audit check {check!r} failed at t={self.time_us:.3f}us"
        if extra:
            message += f" ({extra})"
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self.check, self.time_us, self.details))
