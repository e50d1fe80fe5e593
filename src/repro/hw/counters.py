"""Per-thread performance-monitoring counters.

Real Xeons expose bus-transaction counts through hardware performance
counters; the paper's CPU manager reads them through Mikael Pettersson's
``perfctr`` Linux driver, which *virtualizes* counters per thread (a
thread's counter only advances while that thread runs). This module is the
simulated equivalent: the machine credits each running thread's counters
during every settling interval, and readers (the CPU-manager runtime)
take snapshots.

Counters are monotone non-decreasing by construction; :class:`CounterBank`
enforces this and raises :class:`repro.errors.CounterError` on misuse, which
property tests rely on.

Storage is struct-of-arrays: three float64 arrays (transactions, cycles,
work) indexed by a per-bank row, so the machine's batched advance can
credit every running lane with three fancy-indexed adds
(:meth:`CounterBank.credit_rows`) and the manager can accumulate an
application's counters without a per-thread dict walk
(:meth:`CounterBank.read_rows`). The aggregate in ``read_rows`` is a
``cumsum`` tail — bit-identical to the left-to-right scalar fold of
:meth:`read_many`, which stays as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CounterError

__all__ = ["CounterSnapshot", "CounterBank"]


@dataclass(frozen=True)
class CounterSnapshot:
    """Immutable reading of one thread's counters.

    Attributes
    ----------
    bus_transactions:
        Cumulative bus transactions issued by the thread.
    cycles_us:
        Cumulative wall time the thread spent dispatched on a CPU (µs).
        (The simulator's stand-in for the cycle counter.)
    work_us:
        Cumulative useful work completed, in standalone-µs.
    """

    bus_transactions: float
    cycles_us: float
    work_us: float

    def delta(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        """Counter increments since an ``earlier`` snapshot of the same thread.

        Raises
        ------
        CounterError
            If any field would go negative (snapshots out of order).
        """
        d_tx = self.bus_transactions - earlier.bus_transactions
        d_cy = self.cycles_us - earlier.cycles_us
        d_wk = self.work_us - earlier.work_us
        if d_tx < -1e-9 or d_cy < -1e-9 or d_wk < -1e-9:
            raise CounterError("counter snapshots compared out of order (negative delta)")
        return CounterSnapshot(max(d_tx, 0.0), max(d_cy, 0.0), max(d_wk, 0.0))


class CounterBank:
    """Monotone counters for a set of threads, stored as float64 arrays.

    The machine is the only writer; any number of readers may snapshot.

    Examples
    --------
    >>> bank = CounterBank()
    >>> bank.register(1)
    0
    >>> bank.credit(1, bus_transactions=10.0, cycles_us=2.0, work_us=1.5)
    >>> bank.read(1).bus_transactions
    10.0
    """

    def __init__(self) -> None:
        self._row: dict[int, int] = {}
        capacity = 64
        self._tx = np.zeros(capacity)
        self._cycles = np.zeros(capacity)
        self._work = np.zeros(capacity)

    def _grow(self) -> None:
        n = len(self._row)
        capacity = self._tx.size * 2
        for name in ("_tx", "_cycles", "_work"):
            old = getattr(self, name)
            fresh = np.zeros(capacity)
            fresh[:n] = old[:n]
            setattr(self, name, fresh)

    def register(self, tid: int) -> int:
        """Start counting for thread ``tid`` (all counters at zero).

        Returns the thread's row in :meth:`columns`.

        Raises
        ------
        CounterError
            If ``tid`` is already registered.
        """
        if tid in self._row:
            raise CounterError(f"thread {tid} already registered")
        row = len(self._row)
        if row == self._tx.size:
            self._grow()
        self._tx[row] = 0.0
        self._cycles[row] = 0.0
        self._work[row] = 0.0
        self._row[tid] = row
        return row

    def credit(
        self,
        tid: int,
        bus_transactions: float = 0.0,
        cycles_us: float = 0.0,
        work_us: float = 0.0,
    ) -> None:
        """Add increments to a thread's counters.

        Raises
        ------
        CounterError
            If ``tid`` is unknown or any increment is negative.
        """
        row = self._row.get(tid)
        if row is None:
            raise CounterError(f"credit for unknown thread {tid}")
        if bus_transactions < 0 or cycles_us < 0 or work_us < 0:
            raise CounterError(
                f"negative counter increment for thread {tid}: "
                f"tx={bus_transactions} cycles={cycles_us} work={work_us}"
            )
        self._tx[row] += bus_transactions
        self._cycles[row] += cycles_us
        self._work[row] += work_us

    def credit_rows(
        self,
        rows: np.ndarray,
        bus_transactions: np.ndarray,
        cycles_us: float,
        work_us: np.ndarray,
    ) -> None:
        """Batched unchecked credit for the SoA advance (unique ``rows``).

        ``cycles_us`` is the settle interval, common to every lane; the
        per-row transaction/work increments are elementwise products the
        caller already formed. Each fancy-indexed add performs exactly the
        scalar ``+=`` of :meth:`credit` per row, without its checks, so the
        stored bits match the per-lane reference loop.
        """
        self._tx[rows] += bus_transactions
        self._cycles[rows] += cycles_us
        self._work[rows] += work_us

    def columns(self) -> tuple[memoryview, memoryview, memoryview]:
        """Writable views of the transaction, cycle and work columns.

        Indexed by the rows :meth:`register` returns; an element reads
        and writes as a Python float with the array's bits. For the
        machine's scalar advance, which credits each lane with the plain
        ``+=`` of :meth:`credit` after checking the increments itself. A
        view is valid until the next :meth:`register`, which may
        reallocate.
        """
        return self._tx.data, self._cycles.data, self._work.data

    def read(self, tid: int) -> CounterSnapshot:
        """Snapshot one thread's counters.

        Raises
        ------
        CounterError
            If ``tid`` is unknown.
        """
        row = self._row.get(tid)
        if row is None:
            raise CounterError(f"read of unknown thread {tid}")
        return CounterSnapshot(
            float(self._tx[row]), float(self._cycles[row]), float(self._work[row])
        )

    def read_many(self, tids: list[int]) -> CounterSnapshot:
        """Accumulated snapshot over several threads (e.g. one application).

        This mirrors the paper's runtime library, which polls the counters
        of all application threads and accumulates the values before writing
        the result to the shared arena. Reference path for
        :meth:`read_rows` (same bits, per-thread loop).
        """
        tx = cy = wk = 0.0
        for tid in tids:
            snap = self.read(tid)
            tx += snap.bus_transactions
            cy += snap.cycles_us
            wk += snap.work_us
        return CounterSnapshot(tx, cy, wk)

    def read_rows(self, rows: np.ndarray) -> CounterSnapshot:
        """Accumulated snapshot over the rows :meth:`register` returned.

        The sums are ``cumsum`` tails: numpy's cumulative sum accumulates
        strictly left to right, which reproduces ``read_many``'s
        ``0.0 + x0 + x1 + …`` fold bit-for-bit (``0.0 + x == x`` for the
        non-negative counter values).
        """
        if rows.size == 0:
            return CounterSnapshot(0.0, 0.0, 0.0)
        return CounterSnapshot(
            float(self._tx[rows].cumsum()[-1]),
            float(self._cycles[rows].cumsum()[-1]),
            float(self._work[rows].cumsum()[-1]),
        )

    def threads(self) -> list[int]:
        """All registered thread ids, sorted."""
        return sorted(self._row)
