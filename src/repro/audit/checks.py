"""The invariant auditor: runtime safety checks for the simulated manager.

:class:`InvariantAuditor` is an opt-in observer threaded through the sim
engine, the machine, the CPU manager and the signal dispatcher. Every hook
is strictly read-only with respect to simulation physics — auditing on or
off, the simulated trajectory is bit-identical (the only side effect is a
handful of extra observer-priority engine events, which never reorder the
existing event stream).

The audited invariants, each anchored in the paper:

* **bus-capacity** — the aggregate granted transaction rate never exceeds
  the configured bus capacity (the STREAM-measured 29.5 tx/µs) beyond
  solver tolerance. The contention model's defining constraint.
* **allocation-intent** — at sample ticks, the set of unblocked live
  threads of managed applications is exactly the union of the selected
  applications' live threads (Section 4's block/unblock protocol realises
  the manager's intent once signals settle).
* **cpu-allocation** — never more running threads than processors, no
  blocked/finished thread on a CPU, and (managed runs) work conservation:
  a CPU sits idle only when no runnable thread waits.
* **signal-counters** — the paper's inversion-protection counters are
  non-negative and each live managed thread's blocked flag equals
  ``received_blocks > received_unblocks`` (counter protocol).
* **signal-departed** — no block/unblock signal is ever *applied* to a
  thread whose application has disconnected (the departed-mute rule).
* **starvation-age** — under the head-first circular-list rotation, an
  application waits at most one full rotation: its consecutive unselected
  quanta never exceed the peak number of co-resident applications observed
  during the wait (the paper's no-starvation guarantee).
* **selection-structure** — every selection allocates the head first,
  fits within the machine and contains no duplicate or foreign app ids.
* **selection-oracle** — for deterministic greedy policies, the selection
  equals an independent replay of the paper's Section 4 algorithm
  (:func:`repro.audit.oracle.reference_selection`).
* **engine-accounting** — the simulated clock is monotone, the machine is
  settled to the engine's clock at every hook, and the exact event ledger
  ``pending == scheduled − fired − cancelled`` holds.
* **accounting-totals** — at end of run, per-thread work never exceeds
  its total or its on-CPU time, and summed thread run time plus CPU idle
  time reconciles against ``n_cpus × makespan``.
* **progress-liveness** (fault runs only) — an application that stays
  selected must eventually retire work: zero progress for well past the
  hardened manager's watchdog patience means a hung application kept its
  processors pinned. With hardening armed the watchdog quarantines first
  and this check never fires; with hardening off it documents exactly the
  degradation the injector caused.

Fault runs adjust two checks: the allocation-intent and signal-counters
checks are suspended while the manager reports
``signal_checks_relaxed`` (signal faults with hardening armed — transient
intent mismatches are *expected* until the verifier converges), and the
selection-oracle replay is skipped for boundaries the manager flags as
head-first fallbacks (the degraded selection intentionally ignores the
fitness metric the oracle replays; the structural check still applies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import AuditViolation
from ..sim.events import EventPriority
from .oracle import reference_selection

if TYPE_CHECKING:  # pragma: no cover
    from ..core.manager import CpuManager
    from ..core.policies import JobView, Selection
    from ..hw.machine import Machine
    from ..sim.engine import Engine

__all__ = ["AuditReport", "InvariantAuditor"]

#: Relative tolerance on the bus-capacity check (solver fixed-point slack).
_CAPACITY_RTOL = 1e-6
#: Relative tolerance for end-of-run accounting reconciliation.
_ACCOUNT_RTOL = 1e-6
#: Absolute floor for accounting comparisons (µs / work-µs).
_ACCOUNT_ATOL = 1e-3


@dataclass(frozen=True)
class AuditReport:
    """Machine-readable outcome of one run's invariant auditing.

    Attributes
    ----------
    checks:
        ``(check_name, times_evaluated)`` pairs, sorted by name. A check
        that never ran (e.g. manager checks on a kernel-only run) is
        absent.
    violations:
        Human-readable description of every violation observed (empty on a
        clean run; in strict mode the first violation also raises
        :class:`repro.errors.AuditViolation`, so at most one is recorded).
    """

    checks: tuple[tuple[str, int], ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Whether every evaluated check passed."""
        return not self.violations

    @property
    def total_checks(self) -> int:
        """Total individual check evaluations across the run."""
        return sum(n for _, n in self.checks)

    def count(self, check: str) -> int:
        """Times a named check was evaluated (0 if it never ran)."""
        return dict(self.checks).get(check, 0)


class InvariantAuditor:
    """Runtime invariant checks over one simulation (see module docstring).

    Parameters
    ----------
    machine / engine:
        The simulation fabric under audit.
    bus_capacity_txus:
        Configured bus capacity the aggregate grant is checked against.
    strict:
        Raise :class:`~repro.errors.AuditViolation` at the first failed
        check (default). Non-strict mode records violations in the report
        instead — used by the self-tests that inject synthetic faults.
    """

    def __init__(
        self,
        machine: "Machine",
        engine: "Engine",
        bus_capacity_txus: float,
        strict: bool = True,
    ) -> None:
        self._machine = machine
        self._engine = engine
        self._capacity = float(bus_capacity_txus)
        self.strict = strict
        self._counts: dict[str, int] = {}
        self._violations: list[AuditViolation] = []
        self._last_clock = engine.now
        # Per-app starvation ages: app_id → [unselected quanta, peak
        # co-resident count during the current wait].
        self._wait: dict[int, list[int]] = {}
        # Progress liveness (fault runs): app_id → [last observed work_us,
        # consecutive zero-progress quanta while selected], plus the
        # previous boundary's selection so "was selected for the quantum
        # that just ended" is judged against the right decision.
        self._liveness: dict[int, list[float]] = {}
        self._prev_selected: set[int] = set()
        self._period_us = 0.0

    # ------------------------------------------------------------------ wiring

    def start_periodic(self, period_us: float) -> None:
        """Start a self-rescheduling audit tick for manager-less runs.

        Managed runs are audited from the manager's own sample/boundary
        hooks; kernel-only runs get this observer-priority tick instead
        (bus-capacity + engine-ledger checks only — kernel substrates like
        gang or dedicated are not work-conserving by design).
        """
        if period_us <= 0:
            raise ValueError(f"audit period must be positive, got {period_us}")
        self._period_us = period_us
        self._engine.schedule_after(period_us, self._tick, priority=EventPriority.OBSERVER)

    def _tick(self) -> None:
        # A method, not a closure that names itself: a closure would hold
        # itself in a cycle and keep the machine alive after the run.
        self.check_engine()
        self.check_bus()
        self._engine.schedule_after(self._period_us, self._tick, priority=EventPriority.OBSERVER)

    # ----------------------------------------------------------------- plumbing

    def _passed(self, check: str) -> None:
        self._counts[check] = self._counts.get(check, 0) + 1

    def _violation(self, check: str, **details) -> None:
        self._counts[check] = self._counts.get(check, 0) + 1
        err = AuditViolation(check, self._engine.now, details)
        if len(self._violations) < 100:
            self._violations.append(err)
        if self.strict:
            raise err

    def _check(self, check: str, ok: bool, **details) -> None:
        if ok:
            self._passed(check)
        else:
            self._violation(check, **details)

    def report(self) -> AuditReport:
        """Freeze the current audit state into a picklable report."""
        return AuditReport(
            checks=tuple(sorted(self._counts.items())),
            violations=tuple(str(v) for v in self._violations),
        )

    # ------------------------------------------------------------------- checks

    def check_engine(self) -> None:
        """Clock monotonicity, machine/engine sync, exact event ledger."""
        eng = self._engine
        self._check(
            "engine-accounting",
            eng.now >= self._last_clock
            and abs(self._machine.now - eng.now) <= 1e-6
            and eng.pending_events
            == eng.events_scheduled - eng.events_fired - eng.events_cancelled,
            now=eng.now,
            last=self._last_clock,
            machine_now=self._machine.now,
            pending=eng.pending_events,
            scheduled=eng.events_scheduled,
            fired=eng.events_fired,
            cancelled=eng.events_cancelled,
        )
        self._last_clock = eng.now

    def check_bus(self) -> None:
        """Aggregate granted rate ≤ capacity within solver tolerance."""
        total = self._machine.bus_total_txus
        self._check(
            "bus-capacity",
            total <= self._capacity * (1.0 + _CAPACITY_RTOL),
            total_txus=total,
            capacity_txus=self._capacity,
        )

    def _check_running(self) -> None:
        """Structural CPU-allocation invariants (cheap, race-free).

        The per-thread flag scan reads the thread store's bool columns
        directly (``row == tid - 1``): one mask over the running rows
        instead of a ThreadState lookup per dispatched CPU.
        """
        machine = self._machine
        running = machine.running_tids()
        ok = len(running) <= machine.n_cpus and len(set(running)) == len(running)
        if ok and running:
            s = machine.store
            rows = np.asarray(running, dtype=np.int64) - 1
            bad = s.blocked[rows] | s.finished[rows] | s.in_io[rows]
            ok = not bool(bad.any())
        self._check(
            "cpu-allocation", ok, running=running, n_cpus=machine.n_cpus
        )

    def _signal_settle_us(self, manager: "CpuManager") -> float:
        """Worst-case delivery latency of one boundary's signals."""
        widths = [d.n_threads for d in manager.arena.connected()]
        max_width = max(widths, default=1)
        cfg = manager.config
        return cfg.signal_first_hop_us + cfg.signal_forward_us * max_width

    def on_sample(self, manager: "CpuManager") -> None:
        """Sample-tick hook: intent, counters, bus and engine checks.

        Runs at SAMPLE priority, i.e. before any same-instant boundary or
        delivery event, when the previous boundary's signals have long
        settled (sample periods are O(100 ms), signal latencies O(10 µs)).
        The work-conservation half is deferred to a same-instant
        observer-priority event so same-instant kernel refills land first.
        """
        self.check_engine()
        self.check_bus()
        self._check_running()

        machine = manager.machine
        # Intent + counter checks only make sense once signals settle;
        # skip them for degenerate configs with sample periods inside the
        # signal-latency window.
        if manager.config.sample_period_us < 2.0 * self._signal_settle_us(manager):
            return
        # Under signal faults with hardening armed the manager *expects*
        # transient intent/counter mismatches (lost or delayed signals it
        # is still retrying), so these two checks are suspended; every
        # other invariant above and below stays live.
        if not getattr(manager, "signal_checks_relaxed", False):
            selected = manager.selected
            expected: set[int] = set()
            managed: list[int] = []
            for desc in manager.arena.connected():
                live = [t for t in desc.tids if not machine.thread(t).finished]
                managed.extend(live)
                if desc.app_id in selected:
                    expected.update(live)
            unblocked = {t for t in managed if not machine.thread(t).blocked}
            self._check(
                "allocation-intent",
                unblocked == expected,
                unblocked=sorted(unblocked),
                expected=sorted(expected),
                selected=sorted(selected),
            )
            if manager.signals.protocol == "counter":
                ok = True
                for tid in managed:
                    blocks, unblocks = manager.signals.received_counts(tid)
                    if blocks < 0 or unblocks < 0:
                        ok = False
                        break
                    if machine.thread(tid).blocked != (blocks > unblocks):
                        ok = False
                        break
                self._check("signal-counters", ok, managed=sorted(managed))

        def deferred() -> None:
            # Work conservation at observer priority: every same-instant
            # kernel refill has fired by now. Only meaningful in managed
            # runs (the kernel substrates here are work-conserving).
            runnable = len(machine.runnable_threads())
            running = len(machine.running_tids())
            self._check(
                "cpu-allocation",
                running == min(machine.n_cpus, runnable),
                running=running,
                runnable=runnable,
                n_cpus=machine.n_cpus,
            )

        self._engine.schedule_at(
            self._engine.now, deferred, priority=EventPriority.OBSERVER
        )

    def on_quantum(
        self,
        manager: "CpuManager",
        jobs: list["JobView"],
        selection: "Selection",
        fallback: bool = False,
    ) -> None:
        """Quantum-boundary hook: structure, oracle replay, starvation.

        ``fallback`` marks a boundary where the hardened manager degraded
        to bandwidth-agnostic head-first selection (all estimates stale);
        the oracle replay is skipped there — the degraded path is not the
        greedy algorithm — but structure and starvation still apply
        (head-first first-fit preserves both).
        """
        self.check_engine()
        self.check_bus()
        self._check_running()
        machine = manager.machine

        # Structure: head first, fits, no duplicates, no foreign ids.
        widths = {j.app_id: j.width for j in jobs}
        ids = selection.app_ids
        structural = (
            len(set(ids)) == len(ids)
            and all(a in widths for a in ids)
            and sum(widths[a] for a in ids if a in widths) <= machine.n_cpus
            and (not jobs or not ids or ids[0] == jobs[0].app_id)
        )
        self._check(
            "selection-structure",
            structural,
            selected=list(ids),
            jobs=[(j.app_id, j.width) for j in jobs],
            n_cpus=machine.n_cpus,
        )

        # Differential oracle: replay the paper's greedy algorithm.
        policy = manager.policy
        if getattr(policy, "oracle_replayable", False) and not fallback:
            expected = reference_selection(
                jobs,
                machine.n_cpus,
                policy.bus_capacity_txus,
                policy.effective_estimate,
                policy.fitness,
            )
            self._check(
                "selection-oracle",
                ids == expected,
                selected=list(ids),
                oracle=list(expected),
                policy=policy.name,
            )

        # Starvation ages: consecutive unselected quanta never exceed the
        # peak co-resident count during the wait (head-first rotation).
        connected = [d.app_id for d in manager.arena.connected()]
        n = len(connected)
        chosen = set(ids)
        for app_id in list(self._wait):
            if app_id not in connected:
                del self._wait[app_id]
        for app_id in connected:
            state = self._wait.setdefault(app_id, [0, n])
            if app_id in chosen:
                state[0] = 0
                state[1] = n
            else:
                state[0] += 1
                state[1] = max(state[1], n)
                self._check(
                    "starvation-age",
                    state[0] <= state[1],
                    app_id=app_id,
                    wait_quanta=state[0],
                    peak_coresident=state[1],
                )

        # Progress liveness (fault runs only): an application selected for
        # the quantum that just ended, with live threads, must have retired
        # *some* work within the patience window. The threshold sits two
        # quanta past the hardened watchdog's, so with hardening armed the
        # manager always quarantines first and this check stays clean; with
        # hardening off a hung app pins its processors and the violation
        # documents the damage.
        if getattr(manager, "faults_active", False):
            patience = manager.config.watchdog_quanta + 2
            for app_id in list(self._liveness):
                if app_id not in connected:
                    del self._liveness[app_id]
            for desc in manager.arena.connected():
                live = [t for t in desc.tids if not machine.thread(t).finished]
                if not live:
                    continue
                work = machine.counters.read_many(desc.tids).work_us
                state = self._liveness.setdefault(desc.app_id, [work, 0.0])
                if desc.app_id not in self._prev_selected:
                    # Deselected apps legitimately cannot progress; hold
                    # the count rather than punishing the wait.
                    state[0] = work
                    continue
                if work - state[0] > 1e-9:
                    state[0] = work
                    state[1] = 0.0
                else:
                    state[1] += 1.0
                    self._check(
                        "progress-liveness",
                        state[1] <= patience,
                        app_id=desc.app_id,
                        stuck_quanta=int(state[1]),
                        patience=patience,
                    )
            self._prev_selected = set(ids)

    def on_deliver(self, manager: "CpuManager", tid: int) -> None:
        """A block/unblock signal is about to be *applied* to ``tid``.

        The departed-mute rule: deliveries to threads of disconnected
        applications must be inert, so an applied delivery whose thread
        belongs to no connected application is a protocol violation.
        """
        connected = any(
            tid in desc.tids for desc in manager.arena.connected()
        )
        self._check("signal-departed", connected, tid=tid)

    def finalize(self) -> AuditReport:
        """End-of-run accounting reconciliation; returns the final report."""
        machine = self._machine
        self.check_engine()
        ok = True
        detail: dict = {}
        total_run = 0.0
        for t in machine.threads():
            snap = machine.counters.read(t.tid)
            total_run += t.run_time_us
            slack = _ACCOUNT_RTOL * max(t.work_total, snap.cycles_us) + _ACCOUNT_ATOL
            if t.work_done > t.work_total + slack:
                ok = False
                detail = {"tid": t.tid, "work_done": t.work_done, "work_total": t.work_total}
                break
            if snap.work_us > snap.cycles_us * (1.0 + _ACCOUNT_RTOL) + _ACCOUNT_ATOL:
                ok = False
                detail = {"tid": t.tid, "work_us": snap.work_us, "cycles_us": snap.cycles_us}
                break
            if abs(t.run_time_us - snap.cycles_us) > slack:
                ok = False
                detail = {"tid": t.tid, "run_time_us": t.run_time_us, "cycles_us": snap.cycles_us}
                break
        if ok:
            idle = sum(c.idle_time(machine.now) for c in machine.cpus)
            whole = machine.n_cpus * machine.now
            if abs(total_run + idle - whole) > _ACCOUNT_RTOL * max(whole, 1.0) + _ACCOUNT_ATOL:
                ok = False
                detail = {
                    "total_run_us": total_run,
                    "idle_us": idle,
                    "n_cpus_x_makespan": whole,
                }
        self._check("accounting-totals", ok, **detail)
        return self.report()
