"""Demand-rate patterns: a thread's unloaded bus-transaction rate over work.

A *pattern* is a reusable, immutable description; calling
:meth:`DemandPattern.bind` produces a per-thread *process* implementing the
:class:`repro.hw.machine.DemandProcess` protocol — ``segment(work) ->
(rate_txus, end_work)`` with piecewise-constant rates keyed by completed
work (standalone-µs). Keying by work rather than wall time makes patterns
physical: an application phase corresponds to a code section, so a slowed
thread stays in its phase proportionally longer, exactly as on real
hardware.

Stochastic patterns draw from a seeded :class:`numpy.random.Generator`
supplied at bind time and generate their segment lists lazily, so two runs
with the same seed see identical demand traces regardless of how the
simulation interleaves queries.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError

__all__ = [
    "DemandPattern",
    "ConstantPattern",
    "PhasedPattern",
    "MarkovBurstPattern",
    "JitterPattern",
    "TracePattern",
]


def _eps(work: float) -> float:
    """Relative tolerance for boundary queries at a given work coordinate.

    Queries can land exactly on a segment boundary (the machine advances to
    transitions analytically); a nudge of a few ULPs ensures ``segment``
    always returns the *next* segment with ``end > work``.
    """
    return 1e-9 + 1e-12 * abs(work)


class DemandPattern(ABC):
    """Immutable description of a demand process.

    Subclasses must implement :meth:`bind`; the returned object is consumed
    by exactly one thread.
    """

    @abstractmethod
    def bind(self, rng: np.random.Generator) -> "BoundProcess":
        """Create a per-thread demand process drawing randomness from ``rng``."""

    @abstractmethod
    def mean_rate(self) -> float:
        """The long-run average rate (tx/µs), used for calibration checks."""


class BoundProcess(ABC):
    """Base class of bound per-thread processes."""

    @abstractmethod
    def segment(self, work: float) -> tuple[float, float]:
        """Rate in effect at ``work``, and the work at which it changes next."""


# --------------------------------------------------------------------------- constant


@dataclass(frozen=True)
class ConstantPattern(DemandPattern):
    """A fixed demand rate for the whole execution.

    >>> proc = ConstantPattern(3.0).bind(np.random.default_rng(0))
    >>> proc.segment(0.0)
    (3.0, inf)
    """

    rate_txus: float

    def __post_init__(self) -> None:
        if self.rate_txus < 0:
            raise WorkloadError(f"negative demand rate {self.rate_txus}")

    def bind(self, rng: np.random.Generator) -> BoundProcess:
        return _ConstantProcess(self.rate_txus)

    def mean_rate(self) -> float:
        return self.rate_txus


class _ConstantProcess(BoundProcess):
    __slots__ = ("_rate",)

    def __init__(self, rate: float) -> None:
        self._rate = rate

    def segment(self, work: float) -> tuple[float, float]:
        return (self._rate, math.inf)


# --------------------------------------------------------------------------- phased


@dataclass(frozen=True)
class PhasedPattern(DemandPattern):
    """A deterministic cycle of (work-length, rate) phases.

    Models regular compute/communicate structure (e.g. the NAS solvers:
    sweeps alternating with exchanges). The phase list repeats until the
    thread's work is exhausted.

    Parameters
    ----------
    phases:
        Tuple of ``(work_us, rate_txus)`` pairs; lengths are per cycle.

    >>> p = PhasedPattern(((100.0, 1.0), (50.0, 10.0)))
    >>> round(p.mean_rate(), 2)
    4.0
    """

    phases: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise WorkloadError("PhasedPattern needs at least one phase")
        for length, rate in self.phases:
            if length <= 0:
                raise WorkloadError(f"phase length must be positive, got {length}")
            if rate < 0:
                raise WorkloadError(f"negative phase rate {rate}")

    def bind(self, rng: np.random.Generator) -> BoundProcess:
        return _PhasedProcess(self.phases)

    def mean_rate(self) -> float:
        total = sum(length for length, _ in self.phases)
        weighted = sum(length * rate for length, rate in self.phases)
        return weighted / total

    @property
    def cycle_work(self) -> float:
        """Work per full cycle through the phase list."""
        return sum(length for length, _ in self.phases)


class _PhasedProcess(BoundProcess):
    __slots__ = ("_phases", "_cycle", "_starts")

    def __init__(self, phases: tuple[tuple[float, float], ...]) -> None:
        self._phases = phases
        self._cycle = sum(length for length, _ in phases)
        starts = []
        acc = 0.0
        for length, _ in phases:
            starts.append(acc)
            acc += length
        self._starts = starts

    def segment(self, work: float) -> tuple[float, float]:
        if work < 0:
            raise WorkloadError(f"negative work query {work}")
        probe = work + _eps(work)  # land queries at boundaries in the next phase
        n_cycles = math.floor(probe / self._cycle)
        base = n_cycles * self._cycle
        offset = probe - base
        # Guard against float landing exactly on the cycle boundary.
        if offset >= self._cycle:
            base += self._cycle
            offset -= self._cycle
        for idx in range(len(self._phases) - 1, -1, -1):
            if offset >= self._starts[idx]:
                length, rate = self._phases[idx]
                end = base + self._starts[idx] + length
                if end <= work:  # pathological rounding: skip forward
                    return self.segment(work + 2 * _eps(work))
                return (rate, end)
        # Unreachable: offset >= 0 == starts[0].
        raise AssertionError("phase lookup failed")


# --------------------------------------------------------------------------- markov burst


@dataclass(frozen=True)
class MarkovBurstPattern(DemandPattern):
    """A two-state (low/high) demand process with exponential dwell times.

    Models irregular applications — the paper singles out Raytrace and LU
    as having "highly irregular bus transactions patterns" that destabilize
    the Latest Quantum policy. State dwell times are exponentially
    distributed in *work*, so the trace is deterministic per seed.

    Parameters
    ----------
    low_rate_txus / high_rate_txus:
        Demand in the two states.
    mean_low_work_us / mean_high_work_us:
        Mean dwell work per state.
    start_high:
        Initial state.
    """

    low_rate_txus: float
    high_rate_txus: float
    mean_low_work_us: float
    mean_high_work_us: float
    start_high: bool = False

    def __post_init__(self) -> None:
        if self.low_rate_txus < 0 or self.high_rate_txus < 0:
            raise WorkloadError("negative rate in MarkovBurstPattern")
        if self.mean_low_work_us <= 0 or self.mean_high_work_us <= 0:
            raise WorkloadError("dwell means must be positive")
        if self.high_rate_txus < self.low_rate_txus:
            raise WorkloadError("high_rate must be >= low_rate")

    def bind(self, rng: np.random.Generator) -> BoundProcess:
        return _MarkovProcess(self, rng)

    def mean_rate(self) -> float:
        total = self.mean_low_work_us + self.mean_high_work_us
        return (
            self.low_rate_txus * self.mean_low_work_us
            + self.high_rate_txus * self.mean_high_work_us
        ) / total


class _MarkovProcess(BoundProcess):
    __slots__ = ("_pat", "_rng", "_ends", "_rates", "_idx")

    def __init__(self, pattern: MarkovBurstPattern, rng: np.random.Generator) -> None:
        self._pat = pattern
        self._rng = rng
        self._ends: list[float] = []
        self._rates: list[float] = []
        self._idx = 0
        self._extend(pattern.start_high, 0.0)

    def _extend(self, high: bool, from_work: float) -> None:
        pat = self._pat
        mean = pat.mean_high_work_us if high else pat.mean_low_work_us
        dwell = float(self._rng.exponential(mean))
        dwell = max(dwell, 1e-3)  # avoid zero-length segments
        self._ends.append(from_work + dwell)
        self._rates.append(pat.high_rate_txus if high else pat.low_rate_txus)

    def segment(self, work: float) -> tuple[float, float]:
        if work < 0:
            raise WorkloadError(f"negative work query {work}")
        # Fast path: queries are (almost always) monotone.
        if self._idx > 0 and work < self._ends[self._idx - 1]:
            # Rewind for a non-monotone query (tests do this).
            self._idx = 0
        while work + _eps(work) >= self._ends[self._idx]:
            if self._idx == len(self._ends) - 1:
                last_high = self._rates[-1] == self._pat.high_rate_txus
                self._extend(not last_high, self._ends[-1])
            self._idx += 1
        return (self._rates[self._idx], self._ends[self._idx])


# --------------------------------------------------------------------------- jitter


@dataclass(frozen=True)
class JitterPattern(DemandPattern):
    """A base rate with uniform multiplicative noise per work chunk.

    Every ``chunk_work_us`` of completed work redraws the rate uniformly in
    ``[base·(1-jitter), base·(1+jitter)]``. Used to keep "constant" apps
    from being unrealistically flat (real counters never are).
    """

    base_rate_txus: float
    jitter: float = 0.1
    chunk_work_us: float = 10_000.0

    def __post_init__(self) -> None:
        if self.base_rate_txus < 0:
            raise WorkloadError("negative base rate")
        if not 0 <= self.jitter < 1:
            raise WorkloadError("jitter must be in [0, 1)")
        if self.chunk_work_us <= 0:
            raise WorkloadError("chunk work must be positive")

    def bind(self, rng: np.random.Generator) -> BoundProcess:
        return _JitterProcess(self, rng)

    def mean_rate(self) -> float:
        return self.base_rate_txus


class _JitterProcess(BoundProcess):
    __slots__ = ("_pat", "_rng", "_rates", "_chunk")

    def __init__(self, pattern: JitterPattern, rng: np.random.Generator) -> None:
        self._pat = pattern
        self._rng = rng
        self._rates: list[float] = []
        self._chunk = pattern.chunk_work_us

    def _rate_for(self, idx: int) -> float:
        while len(self._rates) <= idx:
            u = float(self._rng.uniform(-1.0, 1.0))
            self._rates.append(self._pat.base_rate_txus * (1.0 + self._pat.jitter * u))
        return self._rates[idx]

    def segment(self, work: float) -> tuple[float, float]:
        if work < 0:
            raise WorkloadError(f"negative work query {work}")
        probe = work + _eps(work)
        idx = int(probe // self._chunk)
        end = (idx + 1) * self._chunk
        if end <= work:  # pathological rounding: skip to the next chunk
            idx += 1
            end = (idx + 1) * self._chunk
        return (self._rate_for(idx), end)


# --------------------------------------------------------------------------- trace


@dataclass(frozen=True)
class TracePattern(DemandPattern):
    """Replay a recorded demand trace (bring your own measurements).

    Characterize a real application by sampling its bus-transaction
    counters (exactly what the CPU manager's arena collects), convert the
    samples into ``(work_us, rate_txus)`` segments, and the simulator will
    replay them. The trace is played once; after the last segment the rate
    holds at ``tail_rate`` (default: the last segment's rate), so traces
    shorter than the thread's work stay well-defined.

    Parameters
    ----------
    segments:
        Tuple of ``(work_us, rate_txus)``: rate over each consecutive
        work interval.
    tail_rate_txus:
        Rate after the trace is exhausted (``None`` → last segment's).

    >>> t = TracePattern(((100.0, 2.0), (50.0, 8.0)))
    >>> proc = t.bind(np.random.default_rng(0))
    >>> proc.segment(0.0)
    (2.0, 100.0)
    >>> proc.segment(120.0)
    (8.0, 150.0)
    >>> proc.segment(1000.0)[0]  # tail
    8.0
    """

    segments: tuple[tuple[float, float], ...]
    tail_rate_txus: float | None = None

    def __post_init__(self) -> None:
        if not self.segments:
            raise WorkloadError("TracePattern needs at least one segment")
        for length, rate in self.segments:
            if length <= 0:
                raise WorkloadError(f"trace segment length must be positive, got {length}")
            if rate < 0:
                raise WorkloadError(f"negative trace rate {rate}")
        if self.tail_rate_txus is not None and self.tail_rate_txus < 0:
            raise WorkloadError("negative tail rate")

    @classmethod
    def from_counter_samples(
        cls,
        samples: "list[tuple[float, float]]",
        tail_rate_txus: float | None = None,
    ) -> "TracePattern":
        """Build a trace from cumulative counter samples.

        ``samples`` are ``(runtime_us, cumulative_transactions)`` pairs as
        read from a per-thread counter (monotone in both coordinates); the
        differences become the trace segments. Work is approximated by
        runtime — exact when the recording ran unloaded, conservative
        otherwise.
        """
        if len(samples) < 2:
            raise WorkloadError("need at least two counter samples")
        segments: list[tuple[float, float]] = []
        for (t0, c0), (t1, c1) in zip(samples, samples[1:]):
            dt = t1 - t0
            dc = c1 - c0
            if dt <= 0 or dc < 0:
                raise WorkloadError("counter samples must be strictly increasing in time")
            segments.append((dt, dc / dt))
        return cls(segments=tuple(segments), tail_rate_txus=tail_rate_txus)

    def bind(self, rng: np.random.Generator) -> BoundProcess:
        return _TraceProcess(self)

    def mean_rate(self) -> float:
        total = sum(length for length, _ in self.segments)
        weighted = sum(length * rate for length, rate in self.segments)
        return weighted / total


class _TraceProcess(BoundProcess):
    __slots__ = ("_pat", "_ends", "_rates", "_tail")

    def __init__(self, pattern: TracePattern) -> None:
        self._pat = pattern
        ends = []
        rates = []
        acc = 0.0
        for length, rate in pattern.segments:
            acc += length
            ends.append(acc)
            rates.append(rate)
        self._ends = ends
        self._rates = rates
        self._tail = (
            pattern.tail_rate_txus
            if pattern.tail_rate_txus is not None
            else rates[-1]
        )

    def segment(self, work: float) -> tuple[float, float]:
        if work < 0:
            raise WorkloadError(f"negative work query {work}")
        probe = work + _eps(work)
        if probe >= self._ends[-1]:
            return (self._tail, math.inf)
        # Binary search for the containing segment.
        import bisect

        idx = bisect.bisect_right(self._ends, probe)
        return (self._rates[idx], self._ends[idx])
