"""The fault injector: deterministic perturbation of a running simulation.

One :class:`FaultInjector` is built per run when (and only when) the
spec's :class:`~repro.faults.plan.FaultPlan` is enabled. It owns three
dedicated named RNG streams — ``faults.pmc``, ``faults.signals`` and
``faults.apps`` — derived from the run seed, so fault decisions are
bit-reproducible, independent of every other stream, and identical no
matter which worker process of ``run_many`` executes the run.

Injection points
----------------
* **PMC noise** (:meth:`FaultInjector.perturb_sample`) — called by the CPU
  manager between reading the hardware counters and publishing to the
  shared arena. Exactly one categorical draw (and one jitter draw, when
  jitter is configured) is consumed per call regardless of the outcome,
  so the stream stays aligned across plan variations of the same family.
* **Signal faults** (:meth:`FaultInjector.signal_params`) — the manager
  forwards these to :class:`repro.core.signals.SignalDispatcher`, which
  already implements seeded drop/duplicate/extra-delay at delivery
  scheduling time.
* **Application faults** (:meth:`FaultInjector.schedule_app_faults`) —
  crash-at-time and hang-at-time are pre-drawn per application at build
  time (exponential arrival, one lottery draw each, consumed in launch
  order whether or not the fault fires); transient stalls are drawn by a
  recurring scan event.

Degradation accounting
----------------------
The injector doubles as the counter block for everything the hardened
manager does in response: retries, give-ups, staleness fallbacks,
quarantines. A frozen :class:`FaultStats` snapshot lands on
``RunResult.faults`` — it *participates in equality*, so the
serial-vs-parallel bit-identity tests cover fault trajectories too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..codec import plain
from ..core.arena import ArenaSample
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    import numpy as np

    from ..core.signals import SignalDispatcher
    from ..hw.machine import Machine
    from ..rng import RngRegistry
    from ..sim.engine import Engine
    from ..workloads.base import Application

__all__ = ["FaultInjector", "FaultStats"]


@dataclass(frozen=True)
class FaultStats:
    """Injected-fault and degradation-response counts for one run.

    Attributes
    ----------
    pmc_jittered / pmc_dropped / pmc_stale / pmc_wraps:
        Counter reads perturbed per fault class. ``pmc_wraps`` counts
        injected wraps; ``pmc_wrap_rejects`` counts the subset the
        manager's monotonicity guard caught and discarded (a wrap that
        happens to stay monotone slips through as ordinary noise).
    signals_dropped / signals_duplicated:
        Deliveries lost / duplicated inside the dispatcher.
    signal_retries:
        Targeted per-thread intent re-sends issued by the
        acknowledgement-deadline verifier.
    signal_giveups:
        Verification chains abandoned after ``signal_max_retries``
        rounds (the next quantum boundary restates intent afresh).
    stale_fallbacks:
        Quantum boundaries at which at least one application's estimate
        was stale and the policy fell back to its last trusted average.
    headfirst_fallbacks:
        Quantum boundaries at which *every* connected application was
        stale and selection fell back to bandwidth-agnostic head-first.
    apps_crashed / apps_hung / stalls_injected:
        Application faults actually injected.
    apps_quarantined:
        Hung applications the watchdog quarantined.
    """

    pmc_jittered: int = 0
    pmc_dropped: int = 0
    pmc_stale: int = 0
    pmc_wraps: int = 0
    pmc_wrap_rejects: int = 0
    signals_dropped: int = 0
    signals_duplicated: int = 0
    signal_retries: int = 0
    signal_giveups: int = 0
    stale_fallbacks: int = 0
    headfirst_fallbacks: int = 0
    apps_crashed: int = 0
    apps_hung: int = 0
    apps_quarantined: int = 0
    stalls_injected: int = 0

    @property
    def any_injected(self) -> bool:
        """Whether any fault was actually injected during the run."""
        return (
            self.pmc_jittered
            + self.pmc_dropped
            + self.pmc_stale
            + self.pmc_wraps
            + self.signals_dropped
            + self.signals_duplicated
            + self.apps_crashed
            + self.apps_hung
            + self.stalls_injected
        ) > 0

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a plain dictionary."""
        return plain.to_json(self)


class FaultInjector:
    """Applies one :class:`FaultPlan` to one run, deterministically.

    Parameters
    ----------
    plan:
        The (enabled) fault plan.
    registry:
        The run's :class:`~repro.rng.RngRegistry`; the injector pulls its
        three dedicated streams from it.
    """

    def __init__(self, plan: FaultPlan, registry: "RngRegistry") -> None:
        if not plan.enabled:
            raise ValueError("FaultInjector requires an enabled FaultPlan")
        self.plan = plan
        self._pmc_rng = registry.stream("faults.pmc")
        self._signal_rng = registry.stream("faults.signals")
        self._app_rng = registry.stream("faults.apps")
        self._dispatcher: "SignalDispatcher | None" = None
        self._apps: list["Application"] = []
        self._immune: set[int] = set()
        self._hung_apps: set[int] = set()
        self._hung_tids: set[int] = set()
        # Mutable degradation counters; the hardened manager increments the
        # response-side ones directly.
        self.pmc_jittered = 0
        self.pmc_dropped = 0
        self.pmc_stale = 0
        self.pmc_wraps = 0
        self.pmc_wrap_rejects = 0
        self.signal_retries = 0
        self.signal_giveups = 0
        self.stale_fallbacks = 0
        self.headfirst_fallbacks = 0
        self.apps_crashed = 0
        self.apps_hung = 0
        self.apps_quarantined = 0
        self.stalls_injected = 0

    # -- signal faults -------------------------------------------------------

    def signal_params(self) -> dict[str, Any]:
        """Dispatcher constructor kwargs realising the plan's signal faults."""
        return dict(
            drop_prob=self.plan.signal_drop_prob,
            duplicate_prob=self.plan.signal_duplicate_prob,
            jitter_us=self.plan.signal_delay_us,
            rng=self._signal_rng,
        )

    def bind_dispatcher(self, dispatcher: "SignalDispatcher") -> None:
        """Remember the dispatcher so :meth:`stats` can fold its counts in."""
        self._dispatcher = dispatcher

    # -- PMC faults ----------------------------------------------------------

    def perturb_sample(
        self, app_id: int, sample: ArenaSample, prev: ArenaSample | None
    ) -> ArenaSample | None:
        """Perturb one counter read before publication.

        Returns the (possibly perturbed) sample, or ``None`` for a
        dropped read. ``prev`` is the application's previously *published*
        sample; the first read of an application can only be dropped
        (there is no prior state to wrap against or jitter relative to).

        Draw discipline: one categorical uniform always, plus one jitter
        uniform when jitter is configured — the stream advances the same
        amount whatever the outcome.
        """
        plan = self.plan
        u = float(self._pmc_rng.random())
        jitter_u = (
            float(self._pmc_rng.uniform(-plan.pmc_jitter, plan.pmc_jitter))
            if plan.pmc_jitter > 0
            else 0.0
        )
        edge = plan.pmc_drop_prob
        if u < edge:
            self.pmc_dropped += 1
            return None
        if prev is None:
            return sample
        edge += plan.pmc_stale_prob
        if u < edge:
            self.pmc_stale += 1
            return ArenaSample(
                time_us=sample.time_us,
                cum_transactions=prev.cum_transactions,
                cum_runtime_us=prev.cum_runtime_us,
            )
        edge += plan.pmc_wrap_prob
        if u < edge:
            # The counter reset at (roughly) the interval start: the read
            # reports only this interval's delta, usually regressing below
            # the previous cumulative value. The manager's monotonicity
            # guard discards regressions; the next clean read then spans
            # two intervals and the cumulative estimate stays unbiased.
            self.pmc_wraps += 1
            return ArenaSample(
                time_us=sample.time_us,
                cum_transactions=max(
                    0.0, sample.cum_transactions - prev.cum_transactions
                ),
                cum_runtime_us=max(0.0, sample.cum_runtime_us - prev.cum_runtime_us),
            )
        if plan.pmc_jitter > 0:
            delta = sample.cum_transactions - prev.cum_transactions
            if delta > 0:
                self.pmc_jittered += 1
                jittered = delta * max(0.0, 1.0 + jitter_u)
                return ArenaSample(
                    time_us=sample.time_us,
                    cum_transactions=prev.cum_transactions + jittered,
                    cum_runtime_us=sample.cum_runtime_us,
                )
        return sample

    # -- application faults --------------------------------------------------

    def schedule_app_faults(
        self,
        engine: "Engine",
        machine: "Machine",
        apps: list["Application"],
        immune_ids: set[int] | None = None,
    ) -> None:
        """Pre-draw and schedule crash/hang times; start the stall scan.

        Draws are consumed in launch order for every application whether
        or not the fault fires (and whether or not the application is
        immune), so the ``faults.apps`` stream stays aligned across plans
        that differ only in which applications are immune.
        """
        plan = self.plan
        self._apps = list(apps)
        self._immune = set(immune_ids or ())
        if plan.crash_prob > 0:
            for app in self._apps:
                u = float(self._app_rng.random())
                t = float(self._app_rng.exponential(plan.crash_mean_time_us))
                if u < plan.crash_prob and app.app_id not in self._immune:
                    engine.schedule_at(
                        max(t, engine.now), lambda a=app: self._crash(machine, a)
                    )
        if plan.hang_prob > 0:
            for app in self._apps:
                u = float(self._app_rng.random())
                t = float(self._app_rng.exponential(plan.hang_mean_time_us))
                if u < plan.hang_prob and app.app_id not in self._immune:
                    engine.schedule_at(
                        max(t, engine.now), lambda a=app: self._hang(machine, a)
                    )
        if plan.stall_prob > 0:
            engine.schedule_after(
                plan.stall_check_period_us, lambda: self._stall_scan(engine, machine)
            )

    def _crash(self, machine: "Machine", app: "Application") -> None:
        """Kill every unfinished thread of ``app`` (work left incomplete)."""
        victims = [t.tid for t in app.threads if not t.finished]
        if not victims:
            return
        self.apps_crashed += 1
        self._hung_apps.discard(app.app_id)
        for tid in victims:
            self._hung_tids.discard(tid)
            machine.kill_thread(tid)

    def _hang(self, machine: "Machine", app: "Application") -> None:
        """Permanently stall ``app``: allocated but not consuming."""
        victims = [t.tid for t in app.threads if not t.finished]
        if not victims or app.app_id in self._hung_apps:
            return
        self.apps_hung += 1
        self._hung_apps.add(app.app_id)
        for tid in victims:
            self._hung_tids.add(tid)
            machine.set_stalled(tid, True)

    def _stall_scan(self, engine: "Engine", machine: "Machine") -> None:
        """Periodic transient-stall lottery over the static population."""
        plan = self.plan
        for app in self._apps:
            u = float(self._app_rng.random())
            if app.app_id in self._immune or app.app_id in self._hung_apps:
                continue
            victims = [t.tid for t in app.threads if not t.finished]
            if not victims or u >= plan.stall_prob:
                continue
            self.stalls_injected += 1
            for tid in victims:
                machine.set_stalled(tid, True)
            engine.schedule_after(
                plan.stall_duration_us,
                lambda tids=tuple(victims): self._unstall(machine, tids),
            )
        engine.schedule_after(
            plan.stall_check_period_us, lambda: self._stall_scan(engine, machine)
        )

    def _unstall(self, machine: "Machine", tids: tuple[int, ...]) -> None:
        """End a transient stall, leaving permanently hung threads stalled."""
        for tid in tids:
            if tid not in self._hung_tids:
                machine.set_stalled(tid, False)

    # -- reporting -----------------------------------------------------------

    def stats(self) -> FaultStats:
        """Frozen snapshot of all injection and degradation counters."""
        dispatcher = self._dispatcher
        return FaultStats(
            pmc_jittered=self.pmc_jittered,
            pmc_dropped=self.pmc_dropped,
            pmc_stale=self.pmc_stale,
            pmc_wraps=self.pmc_wraps,
            pmc_wrap_rejects=self.pmc_wrap_rejects,
            signals_dropped=dispatcher.dropped if dispatcher is not None else 0,
            signals_duplicated=dispatcher.duplicated if dispatcher is not None else 0,
            signal_retries=self.signal_retries,
            signal_giveups=self.signal_giveups,
            stale_fallbacks=self.stale_fallbacks,
            headfirst_fallbacks=self.headfirst_fallbacks,
            apps_crashed=self.apps_crashed,
            apps_hung=self.apps_hung,
            apps_quarantined=self.apps_quarantined,
            stalls_injected=self.stalls_injected,
        )
