"""The assembled SMP machine: threads, CPUs, caches, bus, counters.

:class:`Machine` is the simulation's continuous component (the engine's
``Advancer``): between timer events it integrates thread progress
analytically. All rates are piecewise constant between *reconfigurations*
(dispatch changes, demand-segment boundaries, rebuild-debt drains), so the
machine caches one bus solution per configuration and reports the earliest
internal transition as its *horizon*; the engine never advances past it.

Thread execution model
----------------------
Each thread's workload is a quantity of *work* measured in standalone-µs
(one unit = one µs of solo execution on an unloaded machine) plus a demand
process giving its unloaded bus-transaction rate as a piecewise-constant
function of completed work. While dispatched, a thread advances work at
``speed × progress_factor`` where ``speed`` comes from the bus contention
model and ``progress_factor < 1`` only while the thread is rebuilding cache
state after a cold dispatch.

Cache rebuild
-------------
On dispatch, the thread's warmth on that CPU determines a rebuild debt of
compulsory refill transactions (working-set lines not resident). While debt
is positive the thread's bus demand is elevated by the configured fill rate
and its progress scaled by ``rebuild_progress_factor``; the portion of its
actual transaction rate attributable to refills drains the debt. Migrations
(dispatch on a different CPU than the last) multiply the debt by
``1 + migration_sensitivity`` — the knob that reproduces the paper's
observation that very-high-hit-ratio codes (LU CB, 99.53 %; Water-nsqr) are
disproportionately hurt by thread migrations.

Struct-of-arrays thread state
-----------------------------
Every per-thread scalar the hot loops touch lives in a
:class:`repro.hw.store.ThreadStore` row (``row == tid - 1``);
:class:`ThreadState` is an index-backed view over that row, so the object
API policies/audit/faults/tests use and the arrays the batched loops use
are the same storage. Machines with at least :data:`_SOA_MIN_CPUS`
logical CPUs run fully batched passes over the store — lane entry build,
advance, horizon scan, transition detection — each bit-identical to the
scalar lane loops that smaller machines run. The choice depends only on
the machine size.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Protocol

import numpy as np

from ..config import MachineConfig
from ..errors import SchedulingError, SimulationError, WorkloadError
from ..sim.engine import Engine
from ..sim.trace import TraceRecorder
from .bus import BusModel, BusRequest
from .cache import CacheL2
from .counters import CounterBank
from .cpu import Cpu
from .store import ThreadStore

__all__ = ["DemandProcess", "Machine", "ThreadState"]

#: Absolute tolerance (in work-µs / lines) for snapping to transitions.
_SNAP = 1e-6

#: Smallest logical-CPU count that runs the struct-of-arrays pipeline.
#: Below it the per-pass array overhead costs more than the scalar lane
#: loops save (both paths produce the same bits).
_SOA_MIN_CPUS = 16

_EMPTY_ROWS = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0)


class DemandProcess(Protocol):
    """Per-thread demand trace: unloaded tx rate as a function of work.

    ``segment(work)`` returns ``(rate_txus, end_work)``: the thread's
    unloaded transaction rate from ``work`` until its completed work reaches
    ``end_work`` (exclusive; ``math.inf`` if the rate never changes again).
    Implementations must be deterministic and support monotone
    non-decreasing ``work`` queries.
    """

    def segment(self, work: float) -> tuple[float, float]:
        """Rate in effect at ``work`` and the work at which it next changes."""
        ...


class ThreadState:
    """Per-thread simulation state: a view over one :class:`ThreadStore` row.

    Created via :meth:`Machine.add_thread`. Scalar fields the hot loops
    read/write (work, debt, flags, CPU placement) are properties backed by
    the store arrays — a write through the object is immediately visible to
    the batched passes and vice versa. Cold metadata (name, demand process,
    dispatch statistics) stays in ordinary slots.
    """

    __slots__ = (
        "_store",
        "_row",
        "tid",
        "app_id",
        "name",
        "demand",
        "migration_sensitivity",
        "created_at",
        "finished_at",
        "dispatch_count",
        "migration_count",
        "io_interval_work_us",
        "io_duration_us",
        "io_count",
    )

    def __init__(
        self,
        store: ThreadStore,
        row: int,
        tid: int,
        app_id: int,
        name: str,
        demand: DemandProcess,
        work_total: float,
        footprint_lines: float,
        migration_sensitivity: float,
        created_at: float,
    ) -> None:
        self._store = store
        self._row = row
        self.tid = tid
        self.app_id = app_id
        self.name = name
        self.demand = demand
        store.work_total[row] = work_total
        store.footprint_lines[row] = footprint_lines
        self.migration_sensitivity = migration_sensitivity
        self.created_at = created_at
        self.finished_at: float | None = None
        self.dispatch_count = 0
        self.migration_count = 0
        # I/O behaviour (the paper's future-work workloads): after every
        # ``io_interval_work_us`` of completed work the thread sleeps for
        # ``io_duration_us`` (disk/network wait), releasing its CPU.
        self.io_interval_work_us: float | None = None
        self.io_duration_us = 0.0
        self.io_count = 0

    # -- store-backed scalars -------------------------------------------------

    @property
    def work_total(self) -> float:
        """Total work to complete, in standalone-µs."""
        return float(self._store.work_total[self._row])

    @work_total.setter
    def work_total(self, value: float) -> None:
        self._store.work_total[self._row] = value

    @property
    def work_done(self) -> float:
        """Completed work, in standalone-µs."""
        return float(self._store.work_done[self._row])

    @work_done.setter
    def work_done(self, value: float) -> None:
        self._store.work_done[self._row] = value

    @property
    def footprint_lines(self) -> float:
        """Working-set size in cache lines."""
        return float(self._store.footprint_lines[self._row])

    @footprint_lines.setter
    def footprint_lines(self, value: float) -> None:
        self._store.footprint_lines[self._row] = value

    @property
    def rebuild_debt(self) -> float:
        """Outstanding compulsory refill transactions."""
        return float(self._store.rebuild_debt[self._row])

    @rebuild_debt.setter
    def rebuild_debt(self, value: float) -> None:
        self._store.rebuild_debt[self._row] = value

    @property
    def run_time_us(self) -> float:
        """Cumulative wall time spent dispatched (µs)."""
        return float(self._store.run_time_us[self._row])

    @run_time_us.setter
    def run_time_us(self, value: float) -> None:
        self._store.run_time_us[self._row] = value

    @property
    def next_io_at_work(self) -> float:
        """Completed-work point of the next I/O sleep (inf = never)."""
        return float(self._store.next_io_at_work[self._row])

    @next_io_at_work.setter
    def next_io_at_work(self, value: float) -> None:
        self._store.next_io_at_work[self._row] = value

    @property
    def cpu(self) -> int | None:
        """The CPU currently running this thread, or ``None``."""
        c = self._store.cpu[self._row]
        return int(c) if c >= 0 else None

    @cpu.setter
    def cpu(self, value: int | None) -> None:
        self._store.cpu[self._row] = -1 if value is None else value

    @property
    def last_cpu(self) -> int | None:
        """The CPU this thread last ran on, or ``None`` (never dispatched)."""
        c = self._store.last_cpu[self._row]
        return int(c) if c >= 0 else None

    @last_cpu.setter
    def last_cpu(self, value: int | None) -> None:
        self._store.last_cpu[self._row] = -1 if value is None else value

    @property
    def blocked(self) -> bool:
        """Blocked by a CPU-manager signal (cannot be dispatched)."""
        return bool(self._store.blocked[self._row])

    @blocked.setter
    def blocked(self, value: bool) -> None:
        self._store.blocked[self._row] = value

    @property
    def stalled(self) -> bool:
        """Hung: occupies its CPU without progressing or issuing traffic."""
        return bool(self._store.stalled[self._row])

    @stalled.setter
    def stalled(self, value: bool) -> None:
        self._store.stalled[self._row] = value

    @property
    def finished(self) -> bool:
        """Completed (or killed); never dispatched again."""
        return bool(self._store.finished[self._row])

    @finished.setter
    def finished(self, value: bool) -> None:
        self._store.finished[self._row] = value

    @property
    def in_io(self) -> bool:
        """Asleep on I/O (off-CPU, not runnable until the wakeup)."""
        return bool(self._store.in_io[self._row])

    @in_io.setter
    def in_io(self, value: bool) -> None:
        self._store.in_io[self._row] = value

    # -- derived --------------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the thread is currently dispatched on a CPU."""
        return self._store.cpu[self._row] >= 0

    @property
    def runnable(self) -> bool:
        """Eligible for dispatch: not finished, not blocked, not in I/O."""
        s = self._store
        r = self._row
        return not (s.finished[r] or s.blocked[r] or s.in_io[r])

    @property
    def remaining_work(self) -> float:
        """Work left to completion, in standalone-µs."""
        s = self._store
        r = self._row
        return max(0.0, float(s.work_total[r] - s.work_done[r]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"cpu{self.cpu}" if self.cpu is not None else ("blocked" if self.blocked else "ready")
        return f"<Thread {self.tid} {self.name!r} {where} {self.work_done:.0f}/{self.work_total:.0f}>"


class _Lane:
    """Cached per-running-thread rates for the current configuration.

    Holds the :class:`ThreadState` directly (not just the tid) so the
    integration and horizon loops skip a dict lookup per lane per event.
    Scalar-path structure; the SoA path keeps lane columns as arrays.
    """

    __slots__ = ("state", "speed", "progress_rate", "tx_rate", "fill_rate", "seg_end")

    def __init__(
        self, state: ThreadState, speed: float, progress_rate: float, tx_rate: float,
        fill_rate: float, seg_end: float
    ) -> None:
        self.state = state
        self.speed = speed
        self.progress_rate = progress_rate
        self.tx_rate = tx_rate
        self.fill_rate = fill_rate
        self.seg_end = seg_end

    @property
    def tid(self) -> int:
        return self.state.tid


class Machine:
    """The simulated SMP (see module docstring).

    Parameters
    ----------
    config:
        Machine description (CPUs, bus, cache).
    engine:
        Simulation engine providing the clock.
    trace:
        Optional trace recorder for dispatch/migration records.
    """

    def __init__(
        self,
        config: MachineConfig,
        engine: Engine,
        trace: TraceRecorder | None = None,
    ) -> None:
        self.config = config
        self._engine = engine
        # Note: `trace or default` would be wrong — an empty TraceRecorder
        # has len() == 0 and is falsy.
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.bus = BusModel(config.bus)
        self.counters = CounterBank()
        #: Struct-of-arrays backing store for every thread's hot scalars
        #: (``row == tid - 1``). Maintained on both hot paths — the
        #: ThreadState views write through to it — so readers (schedulers,
        #: the manager) may use it regardless of the solve path.
        self.store = ThreadStore()
        # Schedulers see logical CPUs; SMT siblings share a core and its L2.
        self.cpus = [Cpu(i) for i in range(config.n_logical_cpus)]
        self.caches = [CacheL2(config.cache) for _ in range(config.n_cpus)]
        self._threads: dict[int, ThreadState] = {}
        self._time = engine.now
        self._dirty = True
        self._lanes: list[_Lane] = []
        self._lane_sig: tuple | None = None
        # Large machines run the batched SoA pipeline, small ones the
        # scalar lane loops; both are bitwise identical.
        self._soa = config.n_logical_cpus >= _SOA_MIN_CPUS
        # CPU occupancy mirror: _cpu_tid[cpu_id] == tid or -1. Updated by
        # _set_cpu_thread alongside the Cpu objects on both paths.
        self._cpu_tid = np.full(config.n_logical_cpus, -1, dtype=np.int64)
        # Ready queue: tids that are runnable and not on any CPU, i.e. the
        # candidates a scheduler's O(n) pick scan actually considers.
        # Maintained incrementally at every lifecycle edge (dispatch,
        # block, I/O, finish); schedulers iterate this instead of
        # rescanning all threads.
        self._ready: set[int] = set()
        self._ready_sorted: list[int] | None = None
        # Memoized runnable list/rows (see runnable_threads).
        self._runnable_cache: list[ThreadState] | None = None
        self._runnable_rows: np.ndarray | None = None
        self._dirty_mask_hits = 0
        # SoA lane columns (valid between rebuilds; row-aligned with
        # _lane_rows, which lists store rows in CPU order).
        self._lane_rows = _EMPTY_ROWS
        self._lane_states: list[ThreadState] = []
        self._lane_speed = _EMPTY_F
        self._lane_fill = _EMPTY_F
        self._lane_seg = _EMPTY_F
        self._lane_fill_pos: tuple[np.ndarray, np.ndarray] | None = None
        self._soa_sig: tuple | None = None
        self._adv_pr: np.ndarray | None = None
        self._adv_tx: np.ndarray | None = None
        self._adv_cacc: list[tuple[CacheL2, int, float]] = []
        self._adv_crows = _EMPTY_ROWS
        # Cached absolute horizon. While the configuration is unchanged,
        # every internal transition time is a *constant* absolute instant
        # (work, debt and I/O positions all advance linearly), so the
        # horizon computed once per configuration stays valid across any
        # number of intervening timer events — the settle-loop fast path.
        self._horizon_abs: float | None = None
        self._bus_utilisation = 0.0
        # Settle-loop profiling counters (cheap ints, always maintained);
        # wall-clock phase timers activate only via enable_profiling().
        self._settle_calls = 0
        self._lane_rebuilds = 0
        self._solve_skips = 0
        self._settle_time_s = 0.0
        self._dispatch_time_s = 0.0
        self._profiling = False
        self._exit_listeners: list[Callable[[ThreadState], None]] = []
        self._io_listeners: list[Callable[[ThreadState, bool], None]] = []
        self._next_tid = 1

    # ----------------------------------------------------------------- setup

    @property
    def n_cpus(self) -> int:
        """Number of schedulable (logical) CPUs."""
        return self.config.n_logical_cpus

    def cache_of(self, cpu_id: int) -> CacheL2:
        """The L2 cache serving a logical CPU (shared by SMT siblings)."""
        return self.caches[self.config.core_of(cpu_id)]

    def _smt_factor(self, cpu_id: int) -> float:
        """Execution efficiency of the thread on ``cpu_id`` given siblings.

        1.0 when the thread has its core to itself; ``smt_efficiency``
        when at least one SMT sibling is also busy.
        """
        cfg = self.config
        if cfg.smt_ways == 1:
            return 1.0
        core = cfg.core_of(cpu_id)
        for other in self.cpus:
            if other.cpu_id != cpu_id and cfg.core_of(other.cpu_id) == core and other.tid is not None:
                return cfg.smt_efficiency
        return 1.0

    @property
    def now(self) -> float:
        """The machine's settled-up-to time (µs)."""
        return self._time

    # ------------------------------------------------------------- profiling

    @property
    def settle_calls(self) -> int:
        """Number of ``advance_to`` integrations performed."""
        return self._settle_calls

    @property
    def lane_rebuilds(self) -> int:
        """Times the lane set was rebuilt and the bus re-solved."""
        return self._lane_rebuilds

    @property
    def solve_skips(self) -> int:
        """Dirty settles that skipped the bus solve (signature unchanged)."""
        return self._solve_skips

    @property
    def dirty_mask_hits(self) -> int:
        """Lane entries served from the store's segment cache (SoA path).

        Counts occupied CPUs whose demand segment was reused from the
        per-thread ``seg_rate``/``seg_end`` store columns during an entry
        rebuild — the ``demand.segment()`` call the SoA pass avoided.
        Always zero on machines below :data:`_SOA_MIN_CPUS` logical CPUs,
        which run the scalar lane loops.
        """
        return self._dirty_mask_hits

    def enable_profiling(self) -> None:
        """Turn on wall-clock phase timers (per-machine and bus solver)."""
        self._profiling = True
        self.bus.enable_profiling()

    def profile_snapshot(self) -> dict[str, float]:
        """Per-phase counters for this machine (see repro.profiling)."""
        bus = self.bus
        return {
            "settle_calls": float(self._settle_calls),
            "lane_rebuilds": float(self._lane_rebuilds),
            "solve_skips": float(self._solve_skips),
            "dirty_mask_hits": float(self._dirty_mask_hits),
            "settle_time_s": self._settle_time_s,
            "dispatch_time_s": self._dispatch_time_s,
            "solve_calls": float(bus.solve_calls),
            "solve_cache_hits": float(bus.cache_hits),
            "solve_warm_starts": float(bus.warm_starts),
            "solve_steps": float(bus.bisection_steps),
            "batched_lanes": float(bus.batched_lanes),
            "solve_time_s": bus.solve_time_s,
        }

    def add_thread(
        self,
        name: str,
        demand: DemandProcess,
        work_total: float,
        app_id: int = 0,
        footprint_lines: float | None = None,
        migration_sensitivity: float = 0.0,
        io_interval_work_us: float | None = None,
        io_duration_us: float = 0.0,
    ) -> ThreadState:
        """Register a new thread; it starts ready (not dispatched).

        Returns the created :class:`ThreadState`; its ``tid`` is unique and
        monotonically assigned (``store row == tid - 1``).
        """
        if work_total <= 0.0:
            raise WorkloadError(f"thread {name!r} must have positive work, got {work_total}")
        if footprint_lines is None:
            footprint_lines = float(self.config.cache.total_lines)
        if footprint_lines < 0:
            raise WorkloadError(f"negative cache footprint for thread {name!r}")
        if migration_sensitivity < 0:
            raise WorkloadError(f"negative migration sensitivity for thread {name!r}")
        tid = self._next_tid
        self._next_tid += 1
        row = self.store.add()
        assert row == tid - 1
        state = ThreadState(
            store=self.store,
            row=row,
            tid=tid,
            app_id=app_id,
            name=name,
            demand=demand,
            work_total=float(work_total),
            footprint_lines=float(footprint_lines),
            migration_sensitivity=float(migration_sensitivity),
            created_at=self._time,
        )
        if io_interval_work_us is not None:
            if io_interval_work_us <= 0:
                raise WorkloadError(f"thread {name!r}: io interval must be positive")
            if io_duration_us < 0:
                raise WorkloadError(f"thread {name!r}: negative io duration")
            state.io_interval_work_us = float(io_interval_work_us)
            state.io_duration_us = float(io_duration_us)
            state.next_io_at_work = float(io_interval_work_us)
        self._threads[tid] = state
        self.counters.register(tid)
        self._invalidate_runnable()
        self._ready.add(tid)
        self._ready_sorted = None
        return state

    def add_exit_listener(self, callback: Callable[[ThreadState], None]) -> None:
        """Register a callback invoked whenever a thread completes its work."""
        self._exit_listeners.append(callback)

    def add_io_listener(self, callback: Callable[[ThreadState, bool], None]) -> None:
        """Register ``callback(thread, asleep)`` for I/O sleep/wake events.

        Fired when a thread starts an I/O sleep (its CPU just freed) and
        when it wakes (it is runnable again). Listeners fire while the
        machine may be ahead of the engine clock; schedulers must defer
        dispatch to a same-instant engine event (the base scheduler's
        plumbing does this).
        """
        self._io_listeners.append(callback)

    # ------------------------------------------------------------- accessors

    def thread(self, tid: int) -> ThreadState:
        """Look up a thread by id."""
        try:
            return self._threads[tid]
        except KeyError:
            raise SchedulingError(f"unknown thread id {tid}") from None

    def threads(self) -> list[ThreadState]:
        """All threads, ordered by tid.

        Tids are assigned monotonically and threads are never removed
        from the registry (finish/kill only flag them), so dict insertion
        order *is* tid order — no sort needed on this hot path (the O(n)
        baseline scheduler scans it every tick).
        """
        return list(self._threads.values())

    def runnable_threads(self) -> list[ThreadState]:
        """Threads eligible for dispatch (unfinished, unblocked), by tid.

        One vectorized mask over the store (finished | blocked | in_io)
        replaces the per-thread attribute scan, and the list is memoized:
        membership only changes when a thread is added, finishes,
        blocks/unblocks, or enters/leaves I/O — each of those paths drops
        the memo, so a hit returns the same threads (same tid order) the
        scan would. Callers must not mutate the list.
        """
        if self._runnable_cache is not None:
            return self._runnable_cache
        s = self.store
        n = len(self._threads)
        mask = ~(s.finished[:n] | s.blocked[:n] | s.in_io[:n])
        out = [t for t, ok in zip(self._threads.values(), mask.tolist()) if ok]
        self._runnable_cache = out
        return out

    def runnable_rows(self) -> np.ndarray:
        """Store rows of the runnable threads, ascending (memoized).

        Same membership and order as :meth:`runnable_threads`
        (``row == tid - 1``); invalidated at the same lifecycle edges.
        Callers must treat the array as read-only.
        """
        rows = self._runnable_rows
        if rows is None:
            s = self.store
            n = len(self._threads)
            mask = ~(s.finished[:n] | s.blocked[:n] | s.in_io[:n])
            rows = np.nonzero(mask)[0]
            self._runnable_rows = rows
        return rows

    def ready_tids(self) -> list[int]:
        """Tids that are runnable *and* off-CPU, ascending (incremental).

        The candidate set an O(n) pick scan actually dispatches from
        (besides the CPU's incumbent): maintained as a set at every
        lifecycle edge, sorted lazily. Callers must not mutate the list.
        """
        out = self._ready_sorted
        if out is None:
            out = sorted(self._ready)
            self._ready_sorted = out
        return out

    def _invalidate_runnable(self) -> None:
        self._runnable_cache = None
        self._runnable_rows = None

    def _ready_add(self, state: ThreadState) -> None:
        if state.runnable:
            self._ready.add(state.tid)
            self._ready_sorted = None

    def _ready_discard(self, tid: int) -> None:
        if tid in self._ready:
            self._ready.remove(tid)
            self._ready_sorted = None

    def running_tids(self) -> list[int]:
        """Tids currently dispatched, in CPU order (idle CPUs skipped)."""
        occ = self._cpu_tid
        return occ[occ >= 0].tolist()

    @property
    def cpu_tids(self) -> np.ndarray:
        """Occupancy array: ``cpu_tids[cpu_id]`` is the tid or −1 (read-only)."""
        return self._cpu_tid

    @property
    def soa_store(self) -> ThreadStore | None:
        """The store when this machine runs the SoA pipeline, else ``None``.

        Tells which hot path the machine size selected: the SoA pipeline
        at :data:`_SOA_MIN_CPUS` logical CPUs and above, the scalar lane
        loops below.
        """
        return self.store if self._soa else None

    def all_finished(self) -> bool:
        """Whether every registered thread has completed."""
        n = len(self._threads)
        return bool(self.store.finished[:n].all())

    @property
    def bus_utilisation(self) -> float:
        """Bus utilisation of the current configuration."""
        self._ensure_solution()
        return self._bus_utilisation

    @property
    def bus_total_txus(self) -> float:
        """Aggregate *actual* transaction rate of the current configuration.

        Sum of the per-lane granted rates; the bus model guarantees it
        never exceeds the configured capacity (within solver tolerance),
        which is exactly what the audit layer asserts. The SoA cumsum tail
        reproduces the scalar left-to-right fold bit-for-bit.
        """
        self._ensure_solution()
        if self._soa:
            tx = self._adv_tx
            if tx is None or len(tx) == 0:
                return 0.0
            return float(tx.cumsum()[-1])
        return sum(lane.tx_rate for lane in self._lanes)

    def thread_speed(self, tid: int) -> float:
        """Current execution speed of a running thread (0 if not running)."""
        self._ensure_solution()
        if self._soa:
            hit = np.nonzero(self._lane_rows == tid - 1)[0]
            if hit.size:
                return float(self._lane_speed[hit[0]])
            return 0.0
        for lane in self._lanes:
            if lane.tid == tid:
                return lane.speed
        return 0.0

    # ------------------------------------------------------------ scheduling

    def _set_cpu_thread(self, cpu_id: int, tid: int | None) -> int | None:
        """Point a CPU at ``tid`` (or idle), keeping the occupancy mirror."""
        prev = self.cpus[cpu_id].set_thread(tid, self._time)
        self._cpu_tid[cpu_id] = -1 if tid is None else tid
        return prev

    def dispatch(self, cpu_id: int, tid: int | None) -> None:
        """Place thread ``tid`` on CPU ``cpu_id`` (or idle it with ``None``).

        Preempts whatever ran there. A thread already running on another CPU
        is migrated (removed there first). Dispatching a blocked or finished
        thread is a scheduling bug and raises.
        """
        if not self._profiling:
            self._dispatch(cpu_id, tid)
            return
        t0 = time.perf_counter()
        try:
            self._dispatch(cpu_id, tid)
        finally:
            self._dispatch_time_s += time.perf_counter() - t0

    def _dispatch(self, cpu_id: int, tid: int | None) -> None:
        if not 0 <= cpu_id < len(self.cpus):
            raise SchedulingError(f"no such cpu {cpu_id}")
        self._require_settled()
        now = self._time
        cpu = self.cpus[cpu_id]
        if tid is not None and cpu.tid == tid:
            return  # idempotent re-dispatch
        if tid is None:
            prev = self._set_cpu_thread(cpu_id, None)
            if prev is not None:
                pstate = self._threads[prev]
                pstate.cpu = None
                self._ready_add(pstate)
            self._mark_dirty(prev)
            return
        state = self.thread(tid)
        if state.finished:
            raise SchedulingError(f"cannot dispatch finished thread {tid}")
        if state.blocked:
            raise SchedulingError(f"cannot dispatch blocked thread {tid}")
        if state.cpu is not None:
            # migrating from another CPU: vacate it
            self._set_cpu_thread(state.cpu, None)
            state.cpu = None
        prev = self._set_cpu_thread(cpu_id, tid)
        if prev is not None:
            pstate = self._threads[prev]
            pstate.cpu = None
            self._ready_add(pstate)
        migrated = state.last_cpu is not None and state.last_cpu != cpu_id
        self._charge_rebuild(state, cpu_id, migrated)
        state.cpu = cpu_id
        state.last_cpu = cpu_id
        state.dispatch_count += 1
        self._ready_discard(tid)
        if migrated:
            state.migration_count += 1
        self.trace.record(
            now,
            "sched.migrate" if migrated else "sched.dispatch",
            cpu=cpu_id,
            tid=tid,
            preempted=prev,
        )
        self._mark_dirty(tid)
        if prev is not None:
            self._mark_dirty(prev)

    def preempt_thread(self, tid: int) -> None:
        """Remove a thread from whichever CPU it runs on (no-op if not running)."""
        state = self.thread(tid)
        if state.cpu is not None:
            self.dispatch(state.cpu, None)

    def set_blocked(self, tid: int, blocked: bool) -> None:
        """Set a thread's blocked flag (CPU-manager signal semantics).

        Blocking a running thread immediately vacates its CPU — a stopped
        thread cannot execute. Schedulers learn about the freed CPU at their
        next decision point (or via their own listeners).
        """
        state = self.thread(tid)
        if state.finished:
            return
        if state.blocked == blocked:
            return
        self._require_settled()
        state.blocked = blocked
        self._invalidate_runnable()
        if blocked:
            self._ready_discard(tid)
            if state.cpu is not None:
                self.dispatch(state.cpu, None)
        else:
            self._ready_add(state)
        self.trace.record(self._time, "sched.block" if blocked else "sched.unblock", tid=tid)
        self._mark_dirty(tid)

    def set_stalled(self, tid: int, stalled: bool) -> None:
        """Set a thread's stalled flag (fault injection's hang semantics).

        A stalled thread *keeps its CPU* but makes no progress and issues
        no bus traffic — modelling a hung or temporarily wedged process
        that still occupies a processor. Contrast :meth:`set_blocked`,
        which vacates the CPU. Finished threads ignore the call.
        """
        state = self.thread(tid)
        if state.finished:
            return
        if state.stalled == stalled:
            return
        self._require_settled()
        state.stalled = stalled
        self.trace.record(
            self._time, "thread.stall" if stalled else "thread.resume", tid=tid
        )
        if state.cpu is not None:
            self._mark_dirty(tid)

    def kill_thread(self, tid: int) -> None:
        """Terminate a thread mid-flight (fault injection's crash semantics).

        Unlike natural completion the thread's remaining work is *lost*:
        ``work_done`` stays where it was. Everything else mirrors
        :meth:`_finish_thread` — the CPU is freed, the thread is marked
        finished (so schedulers, the manager and the arena treat it as
        departed) and exit listeners fire. Killing a finished thread is a
        no-op.
        """
        state = self.thread(tid)
        if state.finished:
            return
        self._require_settled()
        state.stalled = False
        state.finished = True
        self._invalidate_runnable()
        self._ready_discard(tid)
        state.finished_at = self._time
        if state.cpu is not None:
            self._set_cpu_thread(state.cpu, None)
            state.cpu = None
        self._mark_dirty(tid)
        self.trace.record(self._time, "thread.kill", tid=state.tid, name=state.name)
        for cb in self._exit_listeners:
            cb(state)

    def add_rebuild_debt(self, tid: int, lines: float) -> None:
        """Charge extra rebuild debt to a thread (signal handling, traps).

        Used by the CPU manager's signal path to model the cache
        disturbance of asynchronous signal delivery.
        """
        if lines < 0:
            raise SchedulingError(f"negative rebuild debt {lines}")
        if lines == 0.0:
            return
        state = self.thread(tid)
        if state.finished:
            return
        state.rebuild_debt += lines
        if state.cpu is not None:
            self._mark_dirty(tid)

    def _charge_rebuild(self, state: ThreadState, cpu_id: int, migrated: bool) -> None:
        """Compute the rebuild debt a dispatch incurs."""
        cache = self.cache_of(cpu_id)
        warmth = cache.warmth(state.tid, state.footprint_lines)
        cold_lines = (1.0 - warmth) * min(state.footprint_lines, cache.total_lines)
        if migrated:
            cold_lines *= 1.0 + state.migration_sensitivity
        # Accumulate (don't reset): an interrupted rebuild still owes lines.
        state.rebuild_debt = max(state.rebuild_debt, cold_lines)

    # ----------------------------------------------------------- integration

    def _mark_dirty(self, tid: int | None = None) -> None:
        """Flag a reconfiguration: lanes and the cached horizon are stale.

        ``tid`` names the affected thread when the call site knows it
        (kept for trace-friendly call sites and the scalar reference);
        the SoA entry rebuild is a full-width array pass whose per-thread
        work is already amortized by the store's demand-segment cache, so
        no per-tid dirty set is tracked anymore.
        """
        self._dirty = True
        self._horizon_abs = None

    def _require_settled(self) -> None:
        # The machine may be momentarily *ahead* of the engine clock (exit
        # listeners fire inside advance_to, before the engine commits the new
        # time), but it must never be behind: reconfiguring an unsettled
        # machine would mis-account the elapsed interval.
        if self._engine.now > self._time + 1e-6:
            raise SimulationError(
                f"machine settled to t={self._time} but engine is at t={self._engine.now}; "
                "reconfiguration attempted on an unsettled machine"
            )

    def _ensure_solution(self) -> None:
        if not self._dirty:
            return
        if self._soa:
            self._ensure_solution_soa()
            return
        cfg_cache = self.config.cache
        entries: list[tuple[ThreadState, float, float, float, float]] = []
        for cpu in self.cpus:
            if cpu.tid is None:
                continue
            st = self._threads[cpu.tid]
            if st.stalled:
                # Hung/stalled: the thread pins its CPU but consumes
                # nothing — zero demand, zero fill, zero progress, and no
                # segment boundary can arrive while it isn't progressing.
                entries.append((st, 0.0, 0.0, 0.0, math.inf))
                continue
            rate, seg_end = st.demand.segment(st.work_done)
            if rate < 0:
                raise WorkloadError(f"demand pattern of thread {st.tid} returned negative rate")
            if st.rebuild_debt > _SNAP:
                fill = cfg_cache.rebuild_fill_rate_txus
                r_eff = rate + fill
                pf = cfg_cache.rebuild_progress_factor
            else:
                fill = 0.0
                r_eff = rate
                pf = 1.0
            # SMT: a thread sharing its core runs (and issues) slower.
            smt = self._smt_factor(cpu.cpu_id)
            r_eff *= smt
            fill *= smt
            pf *= smt
            entries.append((st, r_eff, fill, pf, seg_end))
        # A reconfiguration that lands on the exact same running set with
        # the same effective rates (e.g. a re-dispatch cycle, a blocked
        # thread that never ran) leaves the cached lanes and bus solution
        # valid — skip the rebuild entirely.
        sig = tuple((st.tid, r_eff, fill, pf, seg_end) for st, r_eff, fill, pf, seg_end in entries)
        if sig == self._lane_sig:
            self._solve_skips += 1
            self._dirty = False
            return
        self._lane_rebuilds += 1
        lanes: list[_Lane] = []
        requests: list[BusRequest] = []
        for st, r_eff, fill, pf, seg_end in entries:
            requests.append(self.bus.request_for_rate(r_eff))
            lanes.append(_Lane(st, 0.0, pf, 0.0, fill, seg_end))
        solution = self.bus.solve(requests)
        for lane, grant, req in zip(lanes, solution.grants, requests):
            lane.speed = grant.speed
            lane.progress_rate = grant.speed * lane.progress_rate  # pf folded in
            lane.tx_rate = grant.actual_txus
            if req.rate_txus > 0.0 and lane.fill_rate > 0.0:
                lane.fill_rate = grant.actual_txus * (lane.fill_rate / req.rate_txus)
        self._lanes = lanes
        self._lane_sig = sig
        self._bus_utilisation = solution.utilisation
        self._dirty = False

    def _ensure_solution_soa(self) -> None:
        """Fully batched lane entry build over the thread store.

        Bit-identity with the scalar entry loop, expression by expression:
        the cached segment rate/end equal the fresh ``demand.segment()``
        values (deterministic process, monotone queries), ``rate + 0.0``
        and ``× 1.0`` are float identities for the non-negative rates
        involved, the SMT factor multiplies the same three terms the
        scalar loop scales, and the grant fold evaluates the scalar fold's
        expressions elementwise.
        """
        s = self.store
        occ = self._cpu_tid
        rows = occ[occ >= 0] - 1  # store rows in CPU order
        n = rows.size
        wd = s.work_done[rows]
        stalled = s.stalled[rows]
        # Demand-segment cache: segment(work) is deterministic and
        # work_done monotone, so a cached (rate, end) row is valid until
        # work_done reaches end. Only stale rows pay the Python call.
        seg_end = s.seg_end[rows]
        fresh = wd < seg_end
        live = ~stalled
        self._dirty_mask_hits += int(np.count_nonzero(fresh & live))
        refresh = live & ~fresh
        if refresh.any():
            threads = self._threads
            seg_rate_col = s.seg_rate
            seg_end_col = s.seg_end
            for r, w in zip(rows[refresh].tolist(), wd[refresh].tolist()):
                st = threads[r + 1]
                rate, end = st.demand.segment(w)
                if rate < 0:
                    raise WorkloadError(
                        f"demand pattern of thread {r + 1} returned negative rate"
                    )
                seg_rate_col[r] = rate
                seg_end_col[r] = end
            seg_end = s.seg_end[rows]
        rate = s.seg_rate[rows]
        cfg_cache = self.config.cache
        debt_hot = s.rebuild_debt[rows] > _SNAP
        fill = np.where(debt_hot, cfg_cache.rebuild_fill_rate_txus, 0.0)
        pf = np.where(debt_hot, cfg_cache.rebuild_progress_factor, 1.0)
        r_eff = rate + fill
        cfg = self.config
        if cfg.smt_ways > 1:
            # SMT: a thread sharing its core with a busy sibling runs (and
            # issues) slower — the scalar loop's ``*= smt`` per lane.
            cores = np.nonzero(occ >= 0)[0] // cfg.smt_ways
            busy = np.bincount(cores, minlength=cfg.n_cpus)
            smt = np.where(busy[cores] > 1, cfg.smt_efficiency, 1.0)
            r_eff = r_eff * smt
            fill = fill * smt
            pf = pf * smt
        if stalled.any():
            # Hung/stalled: pins its CPU but consumes nothing; no segment
            # boundary can arrive while it isn't progressing.
            fill = np.where(stalled, 0.0, fill)
            pf = np.where(stalled, 0.0, pf)
            r_eff = np.where(stalled, 0.0, r_eff)
            seg_end = np.where(stalled, np.inf, seg_end)
        sig = self._soa_sig
        if (
            sig is not None
            and np.array_equal(sig[0], rows)
            and np.array_equal(sig[1], r_eff)
            and np.array_equal(sig[2], fill)
            and np.array_equal(sig[3], pf)
            and np.array_equal(sig[4], seg_end)
        ):
            self._solve_skips += 1
            # CPU ids are not in the signature, so a migration can skip
            # the solve yet move lanes across caches — refresh the cache
            # handles from the store's live placement.
            self._bind_lane_handles(rows)
            self._dirty = False
            return
        self._lane_rebuilds += 1
        requests = self.bus.requests_for_rates(r_eff.tolist())
        solution = self.bus.solve(requests)
        sp = solution.speeds_arr
        if sp is not None and len(sp) == n:
            ac = solution.actuals_arr
        else:
            # Scalar solve (few lanes) or a reordered memo hit dropped the
            # arrays: lift the grant columns; the fold below is then the
            # same expressions the scalar fold evaluates per lane.
            sp = np.fromiter((g.speed for g in solution.grants), dtype=np.float64, count=n)
            ac = np.fromiter(
                (g.actual_txus for g in solution.grants), dtype=np.float64, count=n
            )
        pr = sp * pf
        mask = (r_eff > 0.0) & (fill > 0.0)
        ratio = np.divide(fill, r_eff, out=np.zeros(n), where=mask)
        fill_eff = np.where(mask, ac * ratio, fill)
        self._adv_pr = pr
        self._adv_tx = ac
        self._lane_rows = rows
        self._lane_speed = sp
        self._lane_fill = fill_eff
        self._lane_seg = seg_end
        threads = self._threads
        row_list = rows.tolist()
        self._lane_states = [threads[r + 1] for r in row_list]
        self._adv_crows = self.counters.rows_of([r + 1 for r in row_list])
        fmask = fill_eff > 0.0
        self._lane_fill_pos = (rows[fmask], fill_eff[fmask]) if fmask.any() else None
        self._bind_lane_handles(rows)
        self._soa_sig = (rows, r_eff, fill, pf, seg_end)
        self._lanes = []
        self._lane_sig = None
        self._bus_utilisation = solution.utilisation
        self._dirty = False

    def _bind_lane_handles(self, rows: np.ndarray) -> None:
        """(Re)capture per-lane cache accounting handles from live placement."""
        s = self.store
        cache_of = self.cache_of
        fps = s.footprint_lines
        self._adv_cacc = [
            (cache_of(c), r + 1, float(fps[r]))
            for c, r in zip(s.cpu[rows].tolist(), rows.tolist())
        ]

    def horizon(self) -> float:
        """Earliest absolute time of the next internal transition.

        The value is computed once per configuration and cached: while the
        lane set and rates are unchanged, work, debt and I/O positions all
        advance linearly, so every candidate transition is a fixed absolute
        instant. The engine queries the horizon on every loop iteration —
        between reconfigurations this is now an O(1) lookup instead of an
        O(lanes) scan (the settle-loop fast path).
        """
        self._ensure_solution()
        h = self._horizon_abs
        if h is not None and h > self._time:
            # Only trust a cached horizon that is strictly in the future.
            # A cached value equal to `now` means the engine already
            # advanced to it and the transition pass left a residual that
            # didn't snap (sub-ulp drain at large absolute times) — serving
            # it again would pin the engine. Recomputing routes such states
            # through the nextafter nudge below, which guarantees forward
            # progress. In healthy runs a cached `h == now` is never
            # re-consulted (a settle fires transitions and marks dirty
            # first), so this costs nothing on the fast path.
            return h
        if self._soa:
            earliest = self._horizon_soa()
        else:
            earliest = math.inf
            for lane in self._lanes:
                st = lane.state
                if lane.progress_rate > 0.0:
                    t_done = st.remaining_work / lane.progress_rate
                    earliest = min(earliest, t_done)
                    if math.isfinite(lane.seg_end):
                        t_seg = max(0.0, lane.seg_end - st.work_done) / lane.progress_rate
                        earliest = min(earliest, t_seg)
                    if math.isfinite(st.next_io_at_work):
                        t_io = max(0.0, st.next_io_at_work - st.work_done) / lane.progress_rate
                        earliest = min(earliest, t_io)
                if lane.fill_rate > 0.0 and st.rebuild_debt > 0.0:
                    earliest = min(earliest, st.rebuild_debt / lane.fill_rate)
        h = self._time + earliest if math.isfinite(earliest) else math.inf
        if earliest > 0.0 and h <= self._time:
            # Sub-ulp transition at a large absolute time: the residual is
            # real (above the snap tolerance, or transitions would already
            # have cleared it) but its drain time rounds to zero against
            # `now`, which would pin the engine at the current instant.
            # Quantize up to the next representable time so a positive dt
            # integrates and the residual drains. earliest == 0.0 keeps
            # returning `now` exactly: zero-time settles rely on it.
            h = math.nextafter(self._time, math.inf)
        self._horizon_abs = h
        return h

    def _horizon_soa(self) -> float:
        """One masked-divide pass per event family + a single ``min``.

        ``min`` over floats is exact and order-independent (no NaNs
        arise: divides are masked to positive denominators), so the value
        equals the scalar loop's running-minimum chain bit-for-bit.
        """
        rows = self._lane_rows
        n = rows.size
        if n == 0:
            return math.inf
        s = self.store
        pr = self._adv_pr
        done = s.work_done[rows]
        pos = pr > 0.0
        t = np.full(n, np.inf)
        rem = np.maximum(0.0, s.work_total[rows] - done)
        np.divide(rem, pr, out=t, where=pos)
        earliest = t.min()
        seg = self._lane_seg
        m = pos & np.isfinite(seg)
        if m.any():
            t.fill(np.inf)
            np.divide(np.maximum(0.0, seg - done), pr, out=t, where=m)
            earliest = min(earliest, t.min())
        nio = s.next_io_at_work[rows]
        m = pos & np.isfinite(nio)
        if m.any():
            t.fill(np.inf)
            np.divide(np.maximum(0.0, nio - done), pr, out=t, where=m)
            earliest = min(earliest, t.min())
        fill = self._lane_fill
        debt = s.rebuild_debt[rows]
        m = (fill > 0.0) & (debt > 0.0)
        if m.any():
            t.fill(np.inf)
            np.divide(debt, fill, out=t, where=m)
            earliest = min(earliest, t.min())
        return float(earliest)

    def advance_to(self, t: float) -> None:
        """Integrate machine state forward to absolute time ``t``."""
        if not self._profiling:
            self._advance_to(t)
            return
        t0 = time.perf_counter()
        try:
            self._advance_to(t)
        finally:
            self._settle_time_s += time.perf_counter() - t0

    def _advance_to(self, t: float) -> None:
        if t < self._time - 1e-9:
            raise SimulationError(f"machine cannot advance backwards ({self._time} -> {t})")
        self._settle_calls += 1
        self._ensure_solution()
        dt = t - self._time
        if dt > 0.0:
            if self._soa:
                if self._lane_rows.size:
                    self._advance_lanes_soa(dt)
            else:
                for lane in self._lanes:
                    st = lane.state
                    st.work_done += lane.progress_rate * dt
                    st.run_time_us += dt
                    tx = lane.tx_rate * dt
                    self.counters.credit(
                        lane.tid,
                        bus_transactions=tx,
                        cycles_us=dt,
                        work_us=lane.progress_rate * dt,
                    )
                    assert st.cpu is not None
                    self.cache_of(st.cpu).account_run(st.tid, st.footprint_lines, tx)
                    if lane.fill_rate > 0.0:
                        st.rebuild_debt = max(0.0, st.rebuild_debt - lane.fill_rate * dt)
        self._time = t
        if self._soa:
            self._process_transitions_soa()
        else:
            self._process_transitions()

    def _advance_lanes_soa(self, dt: float) -> None:
        """Store-wide lane integration: three fancy-indexed adds + caches.

        ``work_done[rows] += pr·dt`` gathers, adds and scatters exactly
        the scalar ``st.work_done += dw`` per lane (rows are unique);
        counters batch through :meth:`CounterBank.credit_rows`; the debt
        drain is a masked ``maximum`` over the fill-positive lanes. Only
        the per-core L2 accounting stays a Python loop in lane order (each
        cache object holds dict state, and SMT siblings share one), with
        its handles hoisted at rebuild time.
        """
        s = self.store
        rows = self._lane_rows
        dwork = self._adv_pr * dt
        dtx = self._adv_tx * dt
        s.work_done[rows] += dwork
        s.run_time_us[rows] += dt
        self.counters.credit_rows(self._adv_crows, dtx, dt, dwork)
        for (cache, tid, fp), tx in zip(self._adv_cacc, dtx.tolist()):
            cache.account_run_fast(tid, fp, tx)
        fsel = self._lane_fill_pos
        if fsel is not None:
            frows, frate = fsel
            s.rebuild_debt[frows] = np.maximum(0.0, s.rebuild_debt[frows] - frate * dt)

    def _process_transitions(self) -> None:
        """Handle completions, segment boundaries and debt drains at `now`."""
        for lane in list(self._lanes):
            st = lane.state
            if st.finished:
                continue
            if st.work_done >= st.work_total - _SNAP:
                self._finish_thread(st)
                continue
            if st.work_done >= st.next_io_at_work - _SNAP and not st.in_io:
                self._start_io(st)
                continue
            if math.isfinite(lane.seg_end) and st.work_done >= lane.seg_end - _SNAP:
                st.work_done = max(st.work_done, lane.seg_end)
                self._mark_dirty(st.tid)  # demand rate changes at the boundary
            if lane.fill_rate > 0.0 and st.rebuild_debt <= _SNAP:
                st.rebuild_debt = 0.0
                self._mark_dirty(st.tid)

    def _process_transitions_soa(self) -> None:
        """Masked transition detection; scalar commit per flagged lane.

        The candidate mask evaluates the scalar loop's conditions over the
        lane columns in one pass; the (rare) flagged lanes then replay the
        original per-lane logic in lane order, so listeners, trace records
        and engine events fire exactly as the reference loop fires them.
        A lane's conditions depend only on its own thread's state, so the
        pre-commit snapshot the mask reads cannot miss a transition that
        the in-loop mutations of *other* lanes would have created.
        """
        rows = self._lane_rows
        if rows.size == 0:
            return
        s = self.store
        done = s.work_done[rows]
        cand = done >= s.work_total[rows] - _SNAP
        cand |= (done >= s.next_io_at_work[rows] - _SNAP) & ~s.in_io[rows]
        seg = self._lane_seg
        cand |= np.isfinite(seg) & (done >= seg - _SNAP)
        cand |= (self._lane_fill > 0.0) & (s.rebuild_debt[rows] <= _SNAP)
        if not cand.any():
            return
        states = self._lane_states
        fill = self._lane_fill
        for i in np.nonzero(cand)[0].tolist():
            st = states[i]
            if st.finished:
                continue
            if st.work_done >= st.work_total - _SNAP:
                self._finish_thread(st)
                continue
            if st.work_done >= st.next_io_at_work - _SNAP and not st.in_io:
                self._start_io(st)
                continue
            seg_end = float(seg[i])
            if math.isfinite(seg_end) and st.work_done >= seg_end - _SNAP:
                st.work_done = max(st.work_done, seg_end)
                self._mark_dirty(st.tid)  # demand rate changes at the boundary
            if fill[i] > 0.0 and st.rebuild_debt <= _SNAP:
                st.rebuild_debt = 0.0
                self._mark_dirty(st.tid)

    def _start_io(self, st: ThreadState) -> None:
        """Put a thread to sleep on I/O: free its CPU, arm the wakeup."""
        st.in_io = True
        self._invalidate_runnable()
        self._ready_discard(st.tid)
        st.io_count += 1
        assert st.io_interval_work_us is not None
        st.next_io_at_work = st.work_done + st.io_interval_work_us
        if st.cpu is not None:
            self._set_cpu_thread(st.cpu, None)
            st.cpu = None
        self._mark_dirty(st.tid)
        self.trace.record(self._time, "thread.iosleep", tid=st.tid)
        for cb in self._io_listeners:
            cb(st, True)
        # The wakeup is a plain engine event; the machine is never behind
        # the engine when it fires, so listeners may dispatch directly.
        self._engine.schedule_at(
            self._time + st.io_duration_us, lambda: self._end_io(st.tid)
        )

    def _end_io(self, tid: int) -> None:
        st = self._threads[tid]
        if st.finished or not st.in_io:
            return
        st.in_io = False
        self._invalidate_runnable()
        self._ready_add(st)
        self._mark_dirty(st.tid)
        self.trace.record(self._time, "thread.iowake", tid=st.tid)
        for cb in self._io_listeners:
            cb(st, False)

    def _finish_thread(self, st: ThreadState) -> None:
        st.work_done = st.work_total
        st.finished = True
        self._invalidate_runnable()
        self._ready_discard(st.tid)
        st.finished_at = self._time
        if st.cpu is not None:
            self._set_cpu_thread(st.cpu, None)
            st.cpu = None
        self._mark_dirty(st.tid)
        self.trace.record(self._time, "thread.exit", tid=st.tid, name=st.name)
        for cb in self._exit_listeners:
            cb(st)
