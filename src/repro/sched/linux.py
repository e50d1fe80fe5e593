"""A Linux 2.4-like O(n) epoch scheduler: the paper's baseline.

The paper evaluates against the stock scheduler of Linux 2.4.20. Its
relevant mechanics, reproduced here:

* **Time slices** — every thread holds a ``counter`` of remaining scheduler
  ticks (10 ms each; ~60 ms per slice at default priority).
* **Epochs** — when every *runnable* thread has exhausted its counter, a
  new epoch begins and all counters are recharged with
  ``counter = counter // 2 + default_ticks`` (sleepers carry over half).
* **Goodness** — a CPU picking its next thread scans the whole runqueue
  (O(n)) and takes the highest ``goodness``: zero for exhausted counters,
  else ``counter`` plus a large affinity bonus (``PROC_CHANGE_PENALTY``)
  if the thread last ran on this CPU — the cache-affinity heuristic the
  paper describes ("All SMP schedulers use cache affinity links"). The
  simulator computes the picks of a whole scheduling pass from one
  ranking of the ready set (:meth:`LinuxScheduler._pick_for_cpus`); the
  modelled decision stays the per-CPU O(n) scan.
* **Wakeup preemption** — an unblocked thread takes an idle CPU if any
  (preferring the one it last ran on), otherwise it preempts the running
  thread with the lowest goodness, if its own is higher
  (``reschedule_idle`` semantics).

What the baseline does *not* do — and the paper's whole point — is look at
bus bandwidth: under multiprogramming it happily co-schedules four
streaming threads, starving everyone. It is also gang-oblivious: threads of
a parallel application are scheduled independently.

A small seeded per-tick rebalancing probability models the residual
migration noise of the real kernel; it gives cache-sensitive applications
(LU CB, Water-nsqr) their paper-observed vulnerability even in
otherwise-balanced runs.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING

import numpy as np

from ..config import LinuxSchedConfig
from ..sim.events import EventPriority
from .base import KernelScheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.machine import ThreadState

__all__ = ["LinuxScheduler"]


class LinuxScheduler(KernelScheduler):
    """O(n) epoch scheduler with counters, goodness and affinity.

    Parameters
    ----------
    config:
        Tick period, slice length, affinity bonus, rebalance noise.
    """

    def __init__(self, config: LinuxSchedConfig | None = None) -> None:
        super().__init__()
        self.config = config or LinuxSchedConfig()
        self._counters: dict[int, int] = {}
        self._epochs = 0
        self._ticking = False

    # ------------------------------------------------------------------ start

    def start(self) -> None:
        """Grant initial slices, dispatch the best candidates, start ticking.

        Initial counters are randomized in ``[1, default_ticks]``: on a real
        system threads never start their slices in lockstep (interrupts,
        wakeups and prior history desynchronize per-CPU switching). Without
        this, identical slice lengths make all CPUs switch simultaneously
        and the baseline accidentally gang-schedules thread cohorts —
        masking exactly the mixed co-schedules the paper's policies fix.
        """
        for t in self.machine.threads():
            self._counters[t.tid] = int(self.rng.integers(1, self.config.default_ticks + 1))
        self._fill_idle_cpus()
        self._ticking = True
        self.engine.schedule_after(
            self.config.tick_us, self._tick, priority=EventPriority.KERNEL
        )

    # ------------------------------------------------------------------ state

    @property
    def epochs(self) -> int:
        """Number of epoch recharges performed."""
        return self._epochs

    def counter(self, tid: int) -> int:
        """Remaining slice ticks of a thread."""
        return self._counters.get(tid, 0)

    def _counter_of(self, tid: int) -> int:
        """Counter with lazy initialization for late-arriving threads.

        A thread forked after :meth:`start` (dynamic job arrival) gets a
        fresh default slice the first time the scheduler considers it —
        2.4 forks split the parent's slice; a fresh slice is the closest
        sensible analog for an independently arriving job.
        """
        if tid not in self._counters:
            self._counters[tid] = self.config.default_ticks
        return self._counters[tid]

    def goodness(self, thread: "ThreadState", cpu_id: int) -> float:
        """2.4-style goodness of ``thread`` for ``cpu_id``.

        Zero when the slice is exhausted; otherwise the remaining counter
        plus the affinity bonus when the thread last ran on this CPU.
        """
        counter = self._counter_of(thread.tid)
        if counter <= 0:
            return 0.0
        bonus = self.config.affinity_bonus if thread.last_cpu == cpu_id else 0
        return float(counter + bonus)

    # ------------------------------------------------------------------- tick

    def _tick(self) -> None:
        machine = self.machine
        if machine.all_finished():
            # Stop ticking; on_new_threads() restarts the loop if jobs
            # arrive later (open-system mode).
            self._ticking = False
            return
        cfg = self.config
        counters = self._counters
        # 1. charge the running threads for the elapsed tick; the CPUs
        #    whose thread expired (or that are idle) pick again in step 3
        repick: list[int] = []
        for cpu_id, tid in enumerate(machine.cpu_tids.tolist()):
            if tid < 0:
                repick.append(cpu_id)
                continue
            c = max(0, counters.get(tid, 0) - 1)
            counters[tid] = c
            if c == 0:
                repick.append(cpu_id)
        # 2. epoch: if every runnable thread has an exhausted counter,
        #    recharge everyone (sleepers keep half — 2.4 semantics)
        runnable = machine.runnable_threads()
        if runnable and all(counters.get(t.tid, 0) == 0 for t in runnable):
            self._recharge_counters()
        # 3. one scheduling pass over the CPUs that need a pick
        self._pick_for_cpus(repick)
        # 4. residual migration noise of the real kernel
        if cfg.rebalance_prob > 0.0 and float(self.rng.random()) < cfg.rebalance_prob:
            self._random_rebalance()
        self.engine.schedule_after(cfg.tick_us, self._tick, priority=EventPriority.KERNEL)

    def _recharge_counters(self) -> None:
        """Start an epoch: recharge every unfinished thread's counter.

        ``counter//2`` carry-over (the 2.4 sleeper bonus) plus one tick of
        jitter, drawn in tid order, so slices do not re-synchronize into
        lockstep cohorts after every epoch. The unfinished tids come from
        one mask over the store (``row == tid - 1``), not from a walk over
        every thread ever registered, which grows without bound in an
        open system.
        """
        machine = self.machine
        counters = self._counters
        default = self.config.default_ticks
        rng = self.rng
        store = machine.store
        for tid in (np.flatnonzero(~store.finished[: store.n]) + 1).tolist():
            jitter = int(rng.integers(0, 2))
            counters[tid] = counters.get(tid, 0) // 2 + default + jitter
        self._epochs += 1
        machine.trace.record(machine.now, "sched.epoch", number=self._epochs)

    def _rank_ready(self) -> tuple[list[tuple[int, int]], dict[int, list[tuple[int, int]]]]:
        """Rank the ready set by ``(−counter, tid)``, overall and per last CPU.

        Both rankings are sorted lists of the same keys; the per-CPU lists
        hold the threads that last ran on that CPU (never-run threads fall
        under ``-1``, which no CPU matches).
        """
        machine = self.machine
        ready = machine.ready_tids()
        counters = self._counters
        last_cpu = machine.store.last_cpu[np.asarray(ready, dtype=np.int64) - 1].tolist()
        last_of = dict(zip(ready, last_cpu))
        rank = sorted([(-counters[tid], tid) for tid in ready])
        by_last: dict[int, list[tuple[int, int]]] = {}
        for key in rank:
            by_last.setdefault(last_of[key[1]], []).append(key)
        return rank, by_last

    def _best_for_cpu(
        self,
        rank: list[tuple[int, int]],
        affine: list[tuple[int, int]] | None,
        current: int,
    ) -> int | None:
        """Highest-goodness candidate of one CPU, ties to the lowest tid.

        The candidates are the ranked ready threads and the incumbent
        (``current``, −1 for an idle CPU). Only three can win: the head of
        the CPU's affinity list (bonus added), the overall head, and the
        incumbent, which last ran here by construction. The overall head
        is scored without the bonus; when it last ran here it is also the
        affinity head and scored again with it. ``None`` when every
        candidate's slice is exhausted (goodness 0).
        """
        bonus = self.config.affinity_bonus
        best: int | None = None
        best_g = 0
        neg, tid = rank[0]
        if -neg > 0:
            best_g, best = -neg, tid
        if affine:
            neg, tid = affine[0]
            g = -neg + bonus
            if -neg > 0 and (g > best_g or (g == best_g and tid < best)):
                best_g, best = g, tid
        if current >= 0:
            c = self._counter_of(current)
            g = c + bonus
            if c > 0 and (g > best_g or (g == best_g and current < best)):
                best = current
        return best

    def _pick_for_cpus(self, cpu_ids: list[int]) -> None:
        """One scheduling pass: each CPU in ``cpu_ids`` (ascending) picks.

        2.4 semantics, CPU by CPU: the CPU takes the candidate of highest
        goodness (ties to the lowest tid) among the off-CPU runnable
        threads and its incumbent, which it keeps if that one wins. A
        preempted incumbent is a candidate for the CPUs after it. If every
        candidate's slice is exhausted while waiters exist, ``schedule()``
        recharges every counter and picks again — otherwise a CPU could
        sit idle next to a runnable thread whose slice just ran out.

        The modelled decision is the O(n) runqueue scan per CPU; the pass
        computes the same picks from one ranking of the ready set
        (:meth:`_rank_ready`), which only a recharge reorders. A thread
        forked after :meth:`start` gets its lazy counter here, where the
        first scan would have: not when no CPU picks. Incumbents handed to
        a pass already hold a counter (charged in step 1 of the tick), and
        a CPU with nothing ready has nothing to change, so the pass
        returns as soon as no thread is ready.
        """
        machine = self.machine
        ready = machine.ready_tids()
        if not ready or not cpu_ids:
            return
        counters = self._counters
        for tid in ready:
            self._counter_of(tid)
        rank, by_last = self._rank_ready()
        occupancy = machine.cpu_tids.tolist()
        last_cpu = machine.store.last_cpu
        for cpu_id in cpu_ids:
            if not rank:
                return
            current = occupancy[cpu_id]
            best = self._best_for_cpu(rank, by_last.get(cpu_id), current)
            if best is None:
                # recalculate_counters: all candidates exhausted
                self._recharge_counters()
                rank, by_last = self._rank_ready()
                best = self._best_for_cpu(rank, by_last.get(cpu_id), current)
                assert best is not None  # every counter is now >= default_ticks
            if best == current:
                continue
            key = (-counters[best], best)
            rank.pop(bisect.bisect_left(rank, key))
            affine = by_last[int(last_cpu[best - 1])]
            affine.pop(bisect.bisect_left(affine, key))
            machine.dispatch(cpu_id, best)
            if current >= 0:
                # The preempted incumbent is ready again (it last ran here).
                key = (-counters[current], current)
                bisect.insort(rank, key)
                bisect.insort(by_last.setdefault(cpu_id, []), key)

    def _random_rebalance(self) -> None:
        busy = [c.cpu_id for c in self.machine.cpus if c.tid is not None]
        if len(busy) < 2:
            return
        i, j = self.rng.choice(len(busy), size=2, replace=False)
        cpu_a, cpu_b = busy[int(i)], busy[int(j)]
        tid_a = self.machine.cpus[cpu_a].tid
        tid_b = self.machine.cpus[cpu_b].tid
        assert tid_a is not None and tid_b is not None
        self.machine.dispatch(cpu_a, None)
        self.machine.dispatch(cpu_a, tid_b)
        self.machine.dispatch(cpu_b, tid_a)
        self.machine.trace.record(self.machine.now, "sched.rebalance", cpus=(cpu_a, cpu_b))

    # -------------------------------------------------------------- callbacks

    def on_thread_exit(self, thread: "ThreadState") -> None:
        """Fill the freed CPU immediately."""
        self._counters.pop(thread.tid, None)
        self._fill_idle_cpus()

    def on_block_change(self, tid: int, blocked: bool) -> None:
        """React to CPU-manager signals: fill freed CPUs / place wakeups."""
        if blocked:
            self._fill_idle_cpus()
        else:
            self._wake_thread(tid)

    def on_io_change(self, thread, asleep: bool) -> None:
        """I/O sleep frees a CPU; wakeup re-enters via 2.4 wake semantics."""
        if asleep:
            self._fill_idle_cpus()
        elif not thread.finished:
            self._wake_thread(thread.tid)

    def on_new_threads(self) -> None:
        """Dynamic arrival: place the newcomers and restart the tick loop."""
        self._fill_idle_cpus()
        if not self._ticking:
            self._ticking = True
            self.engine.schedule_after(
                self.config.tick_us, self._tick, priority=EventPriority.KERNEL
            )

    # ---------------------------------------------------------------- helpers

    def _fill_idle_cpus(self) -> None:
        self._pick_for_cpus(np.flatnonzero(self.machine.cpu_tids < 0).tolist())

    def _wake_thread(self, tid: int) -> None:
        """2.4 ``reschedule_idle``: idle CPU first (prefer affinity), else
        preempt the lowest-goodness running thread if we beat it."""
        machine = self.machine
        thread = machine.thread(tid)
        if not thread.runnable or thread.cpu is not None:
            return
        if self._counters.get(tid, 0) <= 0:
            # Woken with an exhausted slice: give it a fresh one (a real
            # 2.4 sleeper would have accumulated counter while asleep).
            self._counters[tid] = self.config.default_ticks
        idle = self.idle_cpus()
        if idle:
            preferred = thread.last_cpu if thread.last_cpu in idle else idle[0]
            machine.dispatch(preferred, tid)
            return
        # No idle CPU: consider preemption.
        victim_cpu = None
        victim_g = float("inf")
        for cpu in machine.cpus:
            assert cpu.tid is not None
            g = self.goodness(machine.thread(cpu.tid), cpu.cpu_id)
            if g < victim_g:
                victim_g = g
                victim_cpu = cpu.cpu_id
        my_g = self.goodness(thread, victim_cpu if victim_cpu is not None else 0)
        if victim_cpu is not None and my_g > victim_g:
            machine.dispatch(victim_cpu, tid)
