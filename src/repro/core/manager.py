"""The user-level CPU manager: the server process of Section 4.

The manager runs *on top of* a kernel scheduler (the paper uses the stock
Linux scheduler underneath). Its event loop, exactly as described:

* Applications **connect**; the manager creates their shared-arena pages,
  tells them the sampling period, and appends descriptors to the circular
  list.
* **Twice per quantum**, each running application publishes its
  accumulated bus-transaction counters to its arena page (the runtime
  library polls all thread counters and accumulates — simulated here by
  the sampling event reading the machine's counter bank for running apps).
* At each **quantum boundary** (200 ms by default; the paper found 100 ms
  causes excessive context switches against the kernel's own quanta):

  1. update bandwidth statistics for all jobs that ran, feeding the
     policy's estimator (per-quantum rate and the per-sample rates);
  2. move previously-running jobs to the end of the circular list;
  3. run the policy's selection (head first, then fitness traversals);
  4. **block** deselected applications and **unblock** selected ones via
     the signal protocol (with its inversion-protection counters).

The kernel scheduler underneath sees only the unblocked threads and places
them on CPUs with its usual affinity heuristics — the same division of
labour as the paper's user-level implementation.

Graceful degradation under faults
---------------------------------
When a run carries an enabled :class:`repro.faults.FaultPlan`, the manager
is constructed with the run's :class:`repro.faults.FaultInjector` and
(with ``ManagerConfig.hardening``) arms three defences:

* **Signal verification** — after each boundary's block/unblock signals
  the manager re-checks, at an acknowledgement deadline, that every
  thread's realised blocked state matches its intent, and re-sends the
  intent *per mismatched thread* with exponential backoff (group-wide
  resends would poison the counter protocol's inversion-protection
  counts; targeted resends converge because the verifier re-examines the
  realised state each round).
* **Staleness fallback** — applications that were scheduled yet published
  no fresh counter sample for ``staleness_quanta`` consecutive quanta are
  marked stale; their estimator simply retains the last trusted average.
  When *every* runnable application is stale the manager abandons fitness
  packing for bandwidth-agnostic head-first selection (rotation alone
  still prevents starvation).
* **Hung-app watchdog** — a selected application whose threads make zero
  progress for ``watchdog_quanta`` consecutive quanta is quarantined:
  its threads are force-blocked (freeing the processors they pinned) and
  the application is disconnected from the circular list.

All of this is *event-free in fault-free runs*: without an injector the
manager schedules exactly the events it always did, so fault-free
trajectories are bit-identical to a build without this machinery.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..config import ManagerConfig
from ..errors import ArenaError, SchedulingError
from ..sim.engine import Engine
from ..sim.events import EventPriority
from .arena import ArenaSample, SharedArena
from .policies import BandwidthPolicy, JobView, head_first_selection
from .signals import SignalDispatcher

if TYPE_CHECKING:  # pragma: no cover
    from ..audit.checks import InvariantAuditor
    from ..faults.injector import FaultInjector
    from ..hw.machine import Machine, ThreadState
    from ..sched.base import KernelScheduler
    from ..workloads.base import Application

__all__ = ["CpuManager"]


def _clean_rate(rate: float) -> float | None:
    """Sanitise a measured tx rate before it reaches an estimator.

    Saturated or raced intervals can yield tiny negative deltas (the arena
    tolerates a −1e-9 counter regression) and a pathological sampler could
    produce NaN/inf; estimators must never see either. Non-finite rates
    are dropped, negative ones clamped to zero.
    """
    if not math.isfinite(rate):
        return None
    return rate if rate > 0.0 else 0.0


class CpuManager:
    """The user-level CPU manager server.

    Parameters
    ----------
    config:
        Quantum, sampling rate, window defaults, signal costs.
    policy:
        The bandwidth-aware policy making selection decisions.
    kernel:
        The kernel scheduler running underneath (receives block-change
        notifications so freed CPUs refill immediately).
    auditor:
        Optional invariant auditor riding the manager's hooks.
    faults:
        The run's fault injector, or ``None`` for a fault-free run. Its
        presence switches on signal-fault wiring, PMC perturbation, the
        immediate crash-reap path and (with ``config.hardening``) the
        degradation defences.
    """

    def __init__(
        self,
        config: ManagerConfig,
        policy: BandwidthPolicy,
        kernel: "KernelScheduler",
        auditor: "InvariantAuditor | None" = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.kernel = kernel
        self._auditor = auditor
        self._faults = faults
        self._machine: "Machine | None" = None
        self._engine: Engine | None = None
        self.arena = SharedArena(sample_period_us=config.sample_period_us)
        self._signals: SignalDispatcher | None = None
        self._selected: set[int] = set()          # current *intent*
        # Per-application row cache: app_id -> the thread-store rows (also
        # the counter-bank rows) of the descriptor's tids. A descriptor's tid
        # list is fixed for its connected life, so the manager's per-tick
        # scans (running check, counter accumulation, finished masks) index
        # the arrays directly instead of walking tids through dicts.
        # Released with the rest of the per-app state in _release, so a
        # reconnecting app id rebuilds from its new descriptor.
        self._rows_cache: dict[int, np.ndarray] = {}
        self._boundary_samples: dict[int, ArenaSample] = {}
        self._last_sample_seen: dict[int, ArenaSample] = {}
        self._quanta = 0
        self._started = False
        # Whether a quantum-boundary event is in flight. The boundary chain
        # dies when the arena empties; a later connection must revive it.
        self._boundary_scheduled = False
        # Workload-wide transaction accounting for saturation detection:
        # (time, cumulative transactions over all managed threads).
        self._global_sample: tuple[float, float] = (0.0, 0.0)
        self._global_boundary: tuple[float, float] = (0.0, 0.0)
        # Hardening state (all inert in fault-free runs).
        self._prev_boundary_time = 0.0
        self._verify_epoch = 0
        self._stale_count: dict[int, int] = {}
        self._watchdog_work: dict[int, float] = {}
        self._watchdog_count: dict[int, int] = {}

    # ---------------------------------------------------------------- fault mode

    @property
    def faults_active(self) -> bool:
        """Whether this run injects faults (an injector is attached)."""
        return self._faults is not None

    @property
    def hardening_active(self) -> bool:
        """Whether the degradation defences are armed for this run."""
        return self._faults is not None and self.config.hardening

    @property
    def signal_checks_relaxed(self) -> bool:
        """Whether the audit layer should skip the intent/counter checks.

        With signal faults injected *and* hardening armed, transient
        intent/realised-state mismatches are expected between a boundary
        and the verifier's convergence — the audit would report false
        positives. With hardening off the checks stay strict so injection
        self-tests can observe the violations.
        """
        return self.hardening_active and self._faults.plan.any_signal_faults

    # ------------------------------------------------------------------ wiring

    def attach(self, machine: "Machine", engine: Engine) -> None:
        """Bind to the machine/engine and wire the signal path to the kernel."""
        if self._machine is not None:
            raise SchedulingError("CPU manager already attached")
        self._machine = machine
        self._engine = engine
        fault_kwargs = {}
        if self._faults is not None and self._faults.plan.any_signal_faults:
            fault_kwargs = self._faults.signal_params()
        self._signals = SignalDispatcher(
            machine,
            engine,
            first_hop_latency_us=self.config.signal_first_hop_us,
            forward_latency_us=self.config.signal_forward_us,
            on_block_change=self.kernel.on_block_change,
            handling_cost_lines=self.config.signal_cost_lines,
            protocol=self.config.signal_protocol,
            **fault_kwargs,
        )
        if self._faults is not None:
            self._faults.bind_dispatcher(self._signals)
            # Crash injection kills threads mid-quantum; reap the arena
            # slot immediately instead of waiting for the next boundary.
            # Registered only in fault runs: the disconnect's saturation
            # checkpoint repair is exact in real arithmetic but not bit-
            # exact in floats, and fault-free trajectories must not move.
            machine.add_exit_listener(self._on_thread_exit)
        if self._auditor is not None:
            auditor = self._auditor
            self._signals.set_audit_hook(lambda tid: auditor.on_deliver(self, tid))

    @property
    def machine(self) -> "Machine":
        """The attached machine (raises if unattached)."""
        if self._machine is None:
            raise SchedulingError("CPU manager not attached")
        return self._machine

    @property
    def engine(self) -> Engine:
        """The attached engine (raises if unattached)."""
        if self._engine is None:
            raise SchedulingError("CPU manager not attached")
        return self._engine

    @property
    def signals(self) -> SignalDispatcher:
        """The signal dispatcher (raises if unattached)."""
        if self._signals is None:
            raise SchedulingError("CPU manager not attached")
        return self._signals

    @property
    def quanta(self) -> int:
        """Number of quantum boundaries processed."""
        return self._quanta

    @property
    def selected(self) -> frozenset[int]:
        """The current selection *intent* (selected plus mid-quantum connects)."""
        return frozenset(self._selected)

    def register_app(self, app: "Application") -> None:
        """Handle an application's connection message."""
        if app.n_threads > self.machine.n_cpus:
            raise SchedulingError(
                f"application {app.name} is wider ({app.n_threads}) than the "
                f"machine ({self.machine.n_cpus} CPUs); a gang policy can never run it"
            )
        desc = self.arena.connect(app.app_id, f"{app.name}#{app.app_id}", app.tids)
        # Initial publication of the *current* counter snapshot: the runtime
        # library starts accumulating at connect time, so quantum-rate
        # deltas are measured from here. Fresh threads have zero counters,
        # but an application id reconnecting after a disconnect must not
        # fold its previous life's transactions into its first rate — that
        # stale baseline would poison the estimator with a lifetime average.
        snap = self.machine.counters.read_many(app.tids)
        first = ArenaSample(
            time_us=self.machine.now,
            cum_transactions=snap.bus_transactions,
            cum_runtime_us=snap.cycles_us,
        )
        desc.publish(first)
        self._boundary_samples[app.app_id] = first
        self._last_sample_seen[app.app_id] = first
        # A freshly connected application is unblocked (it has received no
        # signals), so the manager's intent set must include it: the first
        # boundary then sends *blocks* to the losers and no redundant
        # unblocks to the winners. A redundant unblock would poison the
        # inversion-protection counters with a permanent unblock credit.
        self._selected.add(app.app_id)
        # Revive the quantum chain if it died when the arena last emptied:
        # an open system connects applications long after start(), and a
        # manager with no boundary event would never manage them.
        if self._started and not self._boundary_scheduled:
            self._boundary_scheduled = True
            self.engine.schedule_after(
                0.0, self._quantum_boundary, priority=EventPriority.MANAGER
            )

    def disconnect_app(self, app_id: int) -> None:
        """Handle an application's disconnection, at any point in its life.

        Idempotent: safe to call after the quantum boundary already reaped
        the application. Beyond dropping the descriptor from the circular
        list, this releases every per-application resource the manager
        holds — the estimator state, the boundary/sample checkpoints and
        the per-thread signal counters — so a long-lived manager does not
        leak under churn. A *blocked* application disconnecting is
        unblocked first: once unmanaged it must not stay frozen by a block
        signal nobody will ever revoke.
        """
        self._release(app_id, unblock=True)

    def _release(self, app_id: int, unblock: bool) -> None:
        """Disconnect + release one application's manager-side resources.

        ``unblock=False`` is the quarantine path: the watchdog *wants* the
        hung application's threads to stay blocked off the processors.
        """
        try:
            desc = self.arena.descriptor(app_id)
        except ArenaError:
            return  # never connected here; nothing to release
        machine = self.machine
        if desc.connected:
            if self._faults is not None:
                # Saturation-checkpoint repair: the interval rate in
                # _interval_saturated sums cumulative counters over
                # *connected* descriptors, so this app's lifetime count
                # vanishing from the total would read as a large negative
                # interval rate. Subtracting its final count from the
                # open checkpoints keeps the interval delta equal to the
                # live apps' contribution plus what this app issued since
                # the checkpoint — exact, and only applied in fault runs
                # (floating-point association differs from the fault-free
                # expression).
                final = machine.counters.read_many(desc.tids).bus_transactions
                t_s, tot_s = self._global_sample
                self._global_sample = (t_s, tot_s - final)
                t_b, tot_b = self._global_boundary
                self._global_boundary = (t_b, tot_b - final)
            self.arena.disconnect(app_id)
            if unblock:
                for tid in desc.tids:
                    thread = machine.thread(tid)
                    if not thread.finished and thread.blocked:
                        machine.set_blocked(tid, False)
                        self.kernel.on_block_change(tid, False)
        self.policy.forget(app_id)
        self._selected.discard(app_id)
        self._rows_cache.pop(app_id, None)
        self._boundary_samples.pop(app_id, None)
        self._last_sample_seen.pop(app_id, None)
        self._stale_count.pop(app_id, None)
        self._watchdog_work.pop(app_id, None)
        self._watchdog_count.pop(app_id, None)
        if self._signals is not None:
            for tid in desc.tids:
                self.signals.forget_thread(tid)

    def _on_thread_exit(self, state: "ThreadState") -> None:
        """Immediate reap for fault runs: a dead app frees its slot now.

        Fires from the machine's exit listeners (possibly mid-settle,
        while the machine is momentarily ahead of the engine clock); the
        whole-app disconnect below touches only manager bookkeeping — no
        threads are live, so no ``set_blocked`` reconfiguration happens.
        """
        try:
            desc = self.arena.descriptor(state.app_id)
        except ArenaError:
            return
        if not desc.connected:
            return
        machine = self.machine
        if machine.store.finished[self._app_rows(desc)].all():
            self.disconnect_app(state.app_id)

    def register_apps(self, apps: list["Application"]) -> None:
        """Connect several applications in order."""
        for app in apps:
            self.register_app(app)

    # ------------------------------------------------------------------- start

    def start(self) -> None:
        """Make the first selection and start the sampling/quantum events.

        The first boundary also schedules the first quantum's samples, so
        nothing else is needed here.
        """
        self._started = True
        self._quantum_boundary()

    def _schedule_samples(self) -> None:
        period = self.config.sample_period_us
        for k in range(1, self.config.samples_per_quantum + 1):
            self.engine.schedule_after(
                k * period, self._sample_tick, priority=EventPriority.SAMPLE
            )

    # ----------------------------------------------------------------- sampling

    def _app_rows(self, desc) -> np.ndarray:
        """Store rows of a descriptor's threads, cached.

        A thread's store row is also its counter row (the machine
        registers both in tid order).
        """
        rows = self._rows_cache.get(desc.app_id)
        if rows is None:
            tids = desc.tids
            rows = np.fromiter((t - 1 for t in tids), dtype=np.int64, count=len(tids))
            self._rows_cache[desc.app_id] = rows
        return rows

    def _total_transactions(self) -> float:
        """Cumulative bus transactions of every managed thread."""
        counters = self.machine.counters
        total = 0.0
        for desc in self.arena.connected():
            total += counters.read_rows(self._app_rows(desc)).bus_transactions
        return total

    def _interval_saturated(self, prev: tuple[float, float]) -> tuple[bool, tuple[float, float]]:
        """Whether the workload consumed ~full capacity since ``prev``.

        Returns the verdict and the new (time, total) checkpoint. A
        saturated interval marks every per-job rate measured over it as a
        lower bound (the job may have demanded more than it was granted).
        """
        now = self.machine.now
        total = self._total_transactions()
        prev_t, prev_total = prev
        if not self.config.saturation_aware or now <= prev_t:
            return (False, (now, total))
        rate = (total - prev_total) / (now - prev_t)
        threshold = self.config.saturation_threshold * self.policy.bus_capacity_txus
        return (rate >= threshold, (now, total))

    def _sample_tick(self) -> None:
        """One arena publication round (the runtime library's timer)."""
        machine = self.machine
        faults = self._faults
        perturb = faults is not None and faults.plan.any_pmc_faults
        saturated, self._global_sample = self._interval_saturated(self._global_sample)
        store_cpu = machine.store.cpu
        for desc in self.arena.connected():
            # Only running applications update their pages: a blocked
            # process cannot execute its sampling code.
            rows = self._app_rows(desc)
            if not (store_cpu[rows] >= 0).any():
                continue
            snap = machine.counters.read_rows(rows)
            sample = ArenaSample(
                time_us=machine.now,
                cum_transactions=snap.bus_transactions,
                cum_runtime_us=snap.cycles_us,
            )
            if perturb:
                sample = faults.perturb_sample(desc.app_id, sample, desc.latest)
                if sample is None:
                    continue  # dropped read: nothing published this period
                latest = desc.latest
                if latest is not None and (
                    sample.cum_transactions < latest.cum_transactions - 1e-9
                    or sample.cum_runtime_us < latest.cum_runtime_us - 1e-9
                ):
                    # Monotonicity guard: cumulative counters never run
                    # backwards, so a regressing read is a wrap/reset.
                    # Discard it; the next clean read spans two periods
                    # and the cumulative estimate stays unbiased.
                    faults.pmc_wrap_rejects += 1
                    continue
            desc.publish(sample)
            prev = self._last_sample_seen.get(desc.app_id)
            if prev is not None:
                rate = desc.rate_between(prev, sample)
                if rate is not None:
                    rate = _clean_rate(rate)
                if rate is not None:
                    self.policy.on_sample(
                        desc.app_id, rate, saturated=saturated, time_us=machine.now
                    )
            self._last_sample_seen[desc.app_id] = sample
        if self._auditor is not None:
            self._auditor.on_sample(self)

    # ------------------------------------------------------------------ quantum

    def _quantum_boundary(self) -> None:
        """The end-of-quantum bookkeeping + selection + signalling."""
        machine = self.machine
        self._quanta += 1
        self._boundary_scheduled = False

        # 0. Disconnect finished applications (releases their estimator,
        #    checkpoint and signal-counter state too).
        finished_col = machine.store.finished
        for desc in list(self.arena.connected()):
            if finished_col[self._app_rows(desc)].all():
                self.disconnect_app(desc.app_id)

        # 0b. Hung-app watchdog (hardened fault runs only): quarantine
        #     applications that were scheduled yet made zero progress for
        #     watchdog_quanta consecutive quanta.
        if self.hardening_active and self._faults.plan.any_app_faults:
            self._watchdog_scan()

        descs = self.arena.connected()
        if not descs:
            # Nothing left to manage: let the chain die. register_app
            # revives it when the next application connects.
            return

        # 1. Update bandwidth statistics of jobs that ran last quantum.
        saturated, self._global_boundary = self._interval_saturated(self._global_boundary)
        for desc in descs:
            start = self._boundary_samples.get(desc.app_id)
            latest = desc.latest
            if latest is None:
                continue
            if start is not None:
                rate = desc.rate_between(start, latest)
                if rate is not None:
                    rate = _clean_rate(rate)
                if rate is not None:
                    self.policy.on_quantum(
                        desc.app_id, rate, saturated=saturated, time_us=machine.now
                    )
            self._boundary_samples[desc.app_id] = latest

        # 2. Rotate: previously running jobs to the back of the list.
        ran = [d.app_id for d in descs if d.app_id in self._selected]
        if ran:
            self.arena.move_to_back(ran)

        # 3. Elect the next quantum's applications. A job's width is its
        #    *live* (unfinished) thread count — one mask popcount per app.
        finished_col = machine.store.finished
        jobs = [
            JobView(
                app_id=d.app_id,
                width=int(np.count_nonzero(~finished_col[self._app_rows(d)])),
            )
            for d in self.arena.connected()
        ]
        jobs = [j for j in jobs if j.width > 0]
        fallback = False
        if self.hardening_active:
            fallback = self._track_staleness(set(ran), jobs)
        if fallback:
            selection = head_first_selection(jobs, machine.n_cpus)
        else:
            selection = self.policy.select(jobs, machine.n_cpus)
        new_selected = set(selection.app_ids)

        # 4. Signal the deltas (block losers first so their CPUs free up
        #    by the time the winners' unblocks land).
        for desc in self.arena.connected():
            fin = finished_col[self._app_rows(desc)].tolist()
            live = [t for t, f in zip(desc.tids, fin) if not f]
            if not live:
                continue
            if self.config.resend_intent:
                # Loss-tolerant mode: restate the absolute intent for every
                # job each quantum (safe only with sequence numbering).
                if desc.app_id in new_selected:
                    self.signals.send_unblock(live)
                else:
                    self.signals.send_block(live)
            elif desc.app_id in self._selected and desc.app_id not in new_selected:
                self.signals.send_block(live)
            elif desc.app_id not in self._selected and desc.app_id in new_selected:
                self.signals.send_unblock(live)

        self._selected = new_selected
        # Record the *live* widths the selection packed with (a job's
        # width shrinks as its threads finish; invariant checks must see
        # what the packer saw, not the static thread counts).
        width_of = {j.app_id: j.width for j in jobs}
        sel_sorted = sorted(new_selected)
        machine.trace.record(
            machine.now,
            "manager.quantum",
            number=self._quanta,
            selected=sel_sorted,
            widths=[width_of[a] for a in sel_sorted],
            order=self.arena.list_order(),
        )
        if self._auditor is not None:
            self._auditor.on_quantum(self, jobs, selection, fallback=fallback)

        # 4b. Arm the signal verifier (hardened signal-fault runs only):
        #     after the acknowledgement deadline, re-check realised blocked
        #     states against the intent and re-send per mismatched thread.
        if self.signal_checks_relaxed and self.config.signal_max_retries > 0:
            self._verify_epoch += 1
            self.engine.schedule_after(
                self._ack_deadline_us(),
                lambda epoch=self._verify_epoch: self._verify_signals(1, epoch),
                priority=EventPriority.MANAGER,
            )

        self._prev_boundary_time = machine.now

        # 5. Next quantum.
        self._boundary_scheduled = True
        self.engine.schedule_after(
            self.config.quantum_us, self._quantum_boundary, priority=EventPriority.MANAGER
        )
        self._schedule_samples()

    # ------------------------------------------------------------- hardening

    def _watchdog_scan(self) -> None:
        """Quarantine applications that pinned CPUs without progressing.

        Progress is measured with the work counter (the
        instructions-retired analogue): an application that was *selected*
        — so its threads were unblocked and schedulable — yet retired zero
        work over ``watchdog_quanta`` consecutive quanta is hung, not
        slow. Deselected applications are skipped without resetting their
        count (they legitimately cannot progress while blocked).
        """
        machine = self.machine
        finished_col = machine.store.finished
        for desc in list(self.arena.connected()):
            rows = self._app_rows(desc)
            if finished_col[rows].all():
                continue
            work = machine.counters.read_rows(rows).work_us
            prev = self._watchdog_work.get(desc.app_id)
            self._watchdog_work[desc.app_id] = work
            if prev is None or desc.app_id not in self._selected:
                continue
            if work - prev > 1e-9:
                self._watchdog_count[desc.app_id] = 0
                continue
            count = self._watchdog_count.get(desc.app_id, 0) + 1
            self._watchdog_count[desc.app_id] = count
            if count >= self.config.watchdog_quanta:
                self._quarantine(desc)

    def _quarantine(self, desc) -> None:
        """Force a hung application off its processors and out of the list.

        The manager bypasses the cooperative signal protocol — a hung
        process would never run its handler anyway — and blocks the
        threads directly (modelling SIGSTOP from the server), then
        disconnects the application *without* the usual exit-unblock:
        quarantined threads must stay off the CPUs they were pinning.
        """
        machine = self.machine
        for tid in desc.tids:
            thread = machine.thread(tid)
            if not thread.finished and not thread.blocked:
                machine.set_blocked(tid, True)
                self.kernel.on_block_change(tid, True)
        machine.trace.record(
            machine.now, "manager.quarantine", app_id=desc.app_id, name=desc.name
        )
        if self._faults is not None:
            self._faults.apps_quarantined += 1
        self._release(desc.app_id, unblock=False)

    def _track_staleness(self, ran: set[int], jobs: list[JobView]) -> bool:
        """Update per-app staleness; return True for head-first fallback.

        An application that was selected for the whole previous quantum
        yet pushed nothing fresh into its estimator (its
        ``last_update_time`` predates the previous boundary) accrues one
        stale quantum; a fresh update resets the count. Stale estimates
        simply *hold* — the estimator retains the last trusted average —
        which is counted as a fallback. Only when every runnable
        application is stale does selection abandon fitness packing.
        """
        threshold = self.config.staleness_quanta
        for app_id in ran:
            last = self.policy.last_update_time(app_id)
            if last is None or last <= self._prev_boundary_time + 1e-9:
                self._stale_count[app_id] = self._stale_count.get(app_id, 0) + 1
            else:
                self._stale_count[app_id] = 0
        if not jobs:
            return False
        stale = [j for j in jobs if self._stale_count.get(j.app_id, 0) >= threshold]
        if stale and self._faults is not None:
            self._faults.stale_fallbacks += 1
        if len(stale) == len(jobs):
            if self._faults is not None:
                self._faults.headfirst_fallbacks += 1
            return True
        return False

    def _ack_deadline_us(self) -> float:
        """Acknowledgement deadline for the first verification round."""
        if self.config.signal_ack_deadline_us is not None:
            return self.config.signal_ack_deadline_us
        max_width = max(
            (len(d.tids) for d in self.arena.connected()), default=1
        )
        settle = (
            self.config.signal_first_hop_us
            + self.config.signal_forward_us * max_width
        )
        delay = self._faults.plan.signal_delay_us if self._faults is not None else 0.0
        return 2.0 * settle + delay

    def _verify_signals(self, round_: int, epoch: int) -> None:
        """One acknowledgement-deadline verification round.

        Compares every managed live thread's realised blocked state with
        the current intent and re-sends the intent *per mismatched
        thread*. Per-thread targeting is what makes retries safe under
        the counter protocol: a group-wide resend adds surplus signals to
        already-correct threads and wedges their inversion-protection
        counts, while a targeted resend either lands the missing signal
        or (if the original was merely delayed) creates a surplus this
        same verifier observes and cancels in the next round. The chain
        backs off exponentially and gives up after ``signal_max_retries``
        rounds — the next boundary restates intent and starts a fresh
        chain (``epoch`` retires any round still pending from the old
        one, so two chains never interleave their resends).
        """
        if self._faults is None or epoch != self._verify_epoch:
            return
        machine = self.machine
        mismatched: list[tuple[int, bool]] = []
        for desc in self.arena.connected():
            want_blocked = desc.app_id not in self._selected
            for tid in desc.tids:
                thread = machine.thread(tid)
                if thread.finished:
                    continue
                if thread.blocked != want_blocked:
                    mismatched.append((tid, want_blocked))
        if not mismatched:
            return
        if round_ > self.config.signal_max_retries:
            self._faults.signal_giveups += 1
            return
        for tid, want_blocked in mismatched:
            self._faults.signal_retries += 1
            if want_blocked:
                self.signals.send_block([tid])
            else:
                self.signals.send_unblock([tid])
        self.engine.schedule_after(
            self._ack_deadline_us() * (2.0 ** round_),
            lambda: self._verify_signals(round_ + 1, epoch),
            priority=EventPriority.MANAGER,
        )
