"""Fault-plan configuration: what to break, how often, how hard.

A :class:`FaultPlan` is a frozen, validated description of the faults a
run injects into the three mechanisms the paper's user-level CPU manager
depends on (Section 4):

* **PMC polling** — the twice-per-quantum performance-counter reads that
  feed the BBW/thread estimate. Real counters are multiplexed, wrap, and
  occasionally return stale or garbage values; the plan models
  multiplicative jitter on the per-interval transaction delta, dropped
  samples, counter wraps/resets and stale (unchanged) reads.
* **Signal delivery** — the UNIX block/unblock signals that realise the
  manager's allocation decisions. The plan bounds extra delivery delay and
  assigns loss and duplication probabilities, applied inside
  :class:`repro.core.signals.SignalDispatcher`.
* **The applications themselves** — cooperating processes that, in
  reality, crash, hang (threads stop consuming work but stay allocated)
  or stall for a few milliseconds at a time.

Plans are plain data: process-safe through ``run_many`` (they pickle with
the spec), comparable, and scalable with :meth:`FaultPlan.scaled` — the
FAULT-1 degradation-curve experiment sweeps one reference plan through a
range of intensities.

All randomness is drawn from dedicated named RNG streams
(``faults.pmc`` / ``faults.signals`` / ``faults.apps``) by the
:class:`repro.faults.injector.FaultInjector`, so enabling a fault family
never perturbs any other stream and runs stay bit-reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from ..codec import plain
from ..errors import ConfigError

__all__ = ["FaultPlan"]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _prob(name: str, value: float) -> None:
    _require(0.0 <= value <= 1.0, f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic, seed-driven fault-injection plan for one run.

    Attributes
    ----------
    pmc_jitter:
        Multiplicative noise half-width applied to each sampling
        interval's bus-transaction *delta*: a jittered read reports
        ``delta · (1 + u)`` with ``u ~ Uniform(−jitter, +jitter)``
        (clamped so cumulative counters never regress). ``0.2`` models a
        multiplexed counter mis-attributing up to 20 % of an interval.
    pmc_drop_prob:
        Probability that a scheduled counter read simply fails (the
        manager sees no new sample this period).
    pmc_wrap_prob:
        Probability that a read returns a wrapped/reset cumulative count
        (smaller than the previous read). The manager's monotonicity
        guard must reject such reads; the *next* clean read then spans
        two periods and remains unbiased.
    pmc_stale_prob:
        Probability that a read returns the previous values again (a
        stale counter snapshot): the published sample advances in time
        but not in counts, so no rate estimate can be formed from it.
    signal_drop_prob:
        Probability that one block/unblock signal delivery is lost.
    signal_duplicate_prob:
        Probability that one delivery is duplicated (the duplicate lands
        after an extra bounded delay).
    signal_delay_us:
        Bound of the extra uniformly-distributed delivery delay added to
        every signal hop, in µs.
    crash_prob:
        Per-application probability of crashing at a random time (all
        threads die mid-quantum, work left unfinished).
    crash_mean_time_us:
        Mean of the exponential crash-time distribution.
    hang_prob:
        Per-application probability of hanging at a random time: threads
        stop consuming work and bus bandwidth but stay allocated on
        their processors until the watchdog quarantines them.
    hang_mean_time_us:
        Mean of the exponential hang-time distribution.
    stall_prob:
        Per-application probability, evaluated every
        ``stall_check_period_us``, of a transient slow-quantum stall
        (threads stop progressing for ``stall_duration_us`` then resume).
    stall_duration_us:
        Length of one transient stall, in µs.
    stall_check_period_us:
        How often the stall lottery is drawn, in µs.
    targets_immune:
        When true (default), application faults (crash/hang/stall) are
        injected only into *background* applications; the targets whose
        turnaround the experiments measure stay alive. PMC and signal
        faults always apply to every managed application.
    """

    pmc_jitter: float = 0.0
    pmc_drop_prob: float = 0.0
    pmc_wrap_prob: float = 0.0
    pmc_stale_prob: float = 0.0
    signal_drop_prob: float = 0.0
    signal_duplicate_prob: float = 0.0
    signal_delay_us: float = 0.0
    crash_prob: float = 0.0
    crash_mean_time_us: float = 1_000_000.0
    hang_prob: float = 0.0
    hang_mean_time_us: float = 1_000_000.0
    stall_prob: float = 0.0
    stall_duration_us: float = 10_000.0
    stall_check_period_us: float = 200_000.0
    targets_immune: bool = True

    def __post_init__(self) -> None:
        _require(self.pmc_jitter >= 0, "pmc_jitter must be >= 0")
        _prob("pmc_drop_prob", self.pmc_drop_prob)
        _prob("pmc_wrap_prob", self.pmc_wrap_prob)
        _prob("pmc_stale_prob", self.pmc_stale_prob)
        _prob("signal_drop_prob", self.signal_drop_prob)
        _prob("signal_duplicate_prob", self.signal_duplicate_prob)
        _require(self.signal_delay_us >= 0, "signal_delay_us must be >= 0")
        _prob("crash_prob", self.crash_prob)
        _require(self.crash_mean_time_us > 0, "crash_mean_time_us must be positive")
        _prob("hang_prob", self.hang_prob)
        _require(self.hang_mean_time_us > 0, "hang_mean_time_us must be positive")
        _prob("stall_prob", self.stall_prob)
        _require(self.stall_duration_us > 0, "stall_duration_us must be positive")
        _require(self.stall_check_period_us > 0, "stall_check_period_us must be positive")
        _require(
            self.pmc_drop_prob + self.pmc_wrap_prob + self.pmc_stale_prob <= 1.0,
            "pmc_drop_prob + pmc_wrap_prob + pmc_stale_prob must not exceed 1",
        )

    # -- activity predicates -------------------------------------------------

    @property
    def any_pmc_faults(self) -> bool:
        """Whether any counter-read fault can occur under this plan."""
        return (
            self.pmc_jitter > 0
            or self.pmc_drop_prob > 0
            or self.pmc_wrap_prob > 0
            or self.pmc_stale_prob > 0
        )

    @property
    def any_signal_faults(self) -> bool:
        """Whether any signal-delivery fault can occur under this plan."""
        return (
            self.signal_drop_prob > 0
            or self.signal_duplicate_prob > 0
            or self.signal_delay_us > 0
        )

    @property
    def any_app_faults(self) -> bool:
        """Whether any application fault can occur under this plan."""
        return self.crash_prob > 0 or self.hang_prob > 0 or self.stall_prob > 0

    @property
    def enabled(self) -> bool:
        """Whether this plan can inject anything at all.

        A disabled (all-zero) plan builds no injector, wires no hooks and
        schedules no events: the run is bit-identical to one with no plan
        — the property the zero-rate identity test pins down.
        """
        return self.any_pmc_faults or self.any_signal_faults or self.any_app_faults

    # -- derivation ----------------------------------------------------------

    def scaled(self, intensity: float) -> "FaultPlan":
        """This plan with every rate multiplied by ``intensity``.

        Probabilities are clamped to 1; jitter and the delay bound scale
        linearly; the time-scale parameters (means, durations, periods)
        and ``targets_immune`` are preserved. ``scaled(0.0)`` is a
        disabled plan. FAULT-1 sweeps a reference plan through
        intensities this way.
        """
        if intensity < 0:
            raise ConfigError(f"fault intensity must be >= 0, got {intensity}")

        def p(x: float) -> float:
            return min(1.0, x * intensity)

        return dataclasses.replace(
            self,
            pmc_jitter=self.pmc_jitter * intensity,
            pmc_drop_prob=p(self.pmc_drop_prob),
            pmc_wrap_prob=p(self.pmc_wrap_prob),
            pmc_stale_prob=p(self.pmc_stale_prob),
            signal_drop_prob=p(self.signal_drop_prob),
            signal_duplicate_prob=p(self.signal_duplicate_prob),
            signal_delay_us=self.signal_delay_us * intensity,
            crash_prob=p(self.crash_prob),
            hang_prob=p(self.hang_prob),
            stall_prob=p(self.stall_prob),
        )

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a plain dictionary."""
        return plain.to_json(self)
