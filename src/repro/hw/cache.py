"""Per-CPU L2 cache warmth model.

The simulator does not track individual cache lines. Instead, each CPU's L2
tracks an approximate per-thread *resident footprint* (in lines):

* while a thread runs on a CPU, the transactions it issues bring lines in,
  growing its residency toward its working-set footprint;
* inflow beyond a thread's own growth (steady-state misses of a streaming
  thread) *pollutes* the cache, evicting other threads' lines
  proportionally, as does growth when the cache is full;
* when a thread is dispatched, its *warmth* — resident lines over footprint
  — determines the rebuild debt of compulsory refills it owes before
  running at full efficiency (see :class:`repro.hw.machine.Machine`).

This coarse model reproduces exactly the phenomena the paper leans on:
cache-affinity scheduling helps because residency survives on the last CPU;
migrations hurt high-hit-ratio codes (LU CB, Water-nsqr) the most; and
post-migration refill bursts create the short-lived bandwidth spikes that
destabilize the Latest Quantum policy but not Quanta Window.
"""

from __future__ import annotations

import numpy as np

from ..config import CacheConfig

__all__ = ["CacheL2", "L2Memo"]


class L2Memo:
    """The steady-state memos of a set of L2 caches, one slot per cache.

    Slot ``k`` holds cache ``k``'s :meth:`CacheL2.account_run` memo
    ``(tid, mine, limit)`` in three columns; ``tid == -1`` marks a cleared
    memo. The caches write their slots; the machine's SoA advance reads
    the columns to find, for every lane at once, the calls that would be
    no-ops (see :meth:`CacheL2.account_run`).
    """

    __slots__ = ("tid", "mine", "limit")

    def __init__(self, n_caches: int) -> None:
        self.tid = np.full(n_caches, -1, dtype=np.int64)
        self.mine = np.zeros(n_caches)
        self.limit = np.zeros(n_caches)

    def noop(
        self, slots: np.ndarray, tids: np.ndarray, caps: np.ndarray, inflow: np.ndarray
    ) -> np.ndarray:
        """Per lane, whether ``account_run`` would return at its memo test.

        Lane ``i`` stands for ``caches[slots[i]].account_run(tids[i], fp,
        inflow[i])`` with ``caps[i] == min(fp, total_lines)``, so
        ``caps <= mine`` is the method's ``fp <= mine or total <= mine``.
        Every lane reads the memos as they are now: a lane that a
        previous lane's call could change (one sharing its cache) must
        make its call instead.
        """
        hit = self.tid[slots] == tids
        hit &= inflow <= self.limit[slots]
        hit &= caps <= self.mine[slots]
        hit |= inflow <= 0.0
        return hit


class CacheL2:
    """The private L2 cache of one processor.

    Parameters
    ----------
    config:
        Geometry and rebuild parameters.
    memo, slot:
        Where this cache keeps its steady-state memo: slot ``slot`` of
        ``memo`` (a machine shares one :class:`L2Memo` among its cores).
        By default the cache gets a one-slot memo of its own.

    Examples
    --------
    >>> from repro.config import CacheConfig
    >>> l2 = CacheL2(CacheConfig())
    >>> l2.warmth(tid=7, footprint_lines=1000)
    0.0
    >>> l2.account_run(tid=7, footprint_lines=1000, inflow_lines=500)
    >>> l2.warmth(tid=7, footprint_lines=1000)
    0.5
    """

    def __init__(self, config: CacheConfig, memo: L2Memo | None = None, slot: int = 0) -> None:
        self._cfg = config
        self._total = float(config.total_lines)
        self._resident: dict[int, float] = {}
        # Steady-state memo for account_run: (tid, mine, limit) captured
        # after a call that mutated nothing, where ``limit`` is the largest
        # inflow that displaces nothing (``inf`` when no other thread is
        # resident, else the free space). Any mutation path clears it
        # (tid -1). The cache holds one-element memoryviews of its slot in
        # the columns: element 0 reads and writes a plain int or float, not
        # a numpy scalar.
        self._memo = memo if memo is not None else L2Memo(1)
        self._slot = slot
        self._bind_memo()

    def _bind_memo(self) -> None:
        memo, k = self._memo, self._slot
        self._m_tid = memo.tid.data[k:k + 1]
        self._m_mine = memo.mine.data[k:k + 1]
        self._m_limit = memo.limit.data[k:k + 1]

    def __getstate__(self) -> dict:
        # A memoryview can be neither pickled nor deep-copied: drop the
        # views and rebind them to the copied columns.
        state = dict(self.__dict__)
        del state["_m_tid"], state["_m_mine"], state["_m_limit"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_memo()

    @property
    def total_lines(self) -> float:
        """Cache capacity in lines."""
        return self._total

    def resident(self, tid: int) -> float:
        """Lines of ``tid``'s working set currently resident here."""
        return self._resident.get(tid, 0.0)

    def occupancy(self) -> float:
        """Total resident lines across all threads."""
        return sum(self._resident.values())

    def warmth(self, tid: int, footprint_lines: float) -> float:
        """Fraction of ``tid``'s working set resident here, in [0, 1].

        The footprint is capped at the cache capacity: a working set larger
        than the L2 can never be fully warm, and a thread that has filled
        the whole cache is as warm as it will ever get.
        """
        cap = min(float(footprint_lines), self._total)
        if cap <= 0.0:
            return 1.0
        return min(1.0, self._resident.get(tid, 0.0) / cap)

    def account_run(self, tid: int, footprint_lines: float, inflow_lines: float) -> None:
        """Account ``inflow_lines`` transactions issued by ``tid`` running here.

        Residency grows toward the (capacity-capped) footprint; all inflow —
        growth or steady-state streaming — evicts other threads' lines when
        the cache lacks free space. Pollution: every incoming line
        displaces something once the cache is full. Lines beyond own growth
        recycle the thread's own stale data too, but preferentially hit
        victims (LRU-ish): all non-growth inflow is eviction pressure on
        others, bounded by what others actually hold, and taken from them
        proportionally.

        One pass over the residency sums occupancy and the others' share
        (left to right, in dict order). A steady-state memo makes the
        common no-op case O(1): once a thread's residency has converged (no
        growth possible) and its inflow displaces nothing (it owns the
        whole cache or there is enough free space), the call mutates
        nothing — so the sums from the previous call stay valid and the
        decision needs only a few comparisons. Any mutation clears the memo.

        The memo test is the full computation's no-op condition, rewritten
        without arithmetic: no growth (``cap <= mine``, i.e. the footprint
        or the capacity is at most the residency) and no displacement
        (``inflow_lines <= limit``). Because the memo lives in
        :class:`L2Memo` columns, a caller may evaluate the same test itself
        and skip the call when it holds (the machine's advance does, for
        all lanes at once). ``tid`` must be non-negative: ``-1`` marks a
        cleared memo.
        """
        if inflow_lines <= 0.0:
            return
        m_tid = self._m_tid
        if m_tid[0] == tid and inflow_lines <= self._m_limit[0]:
            mine = self._m_mine[0]
            if footprint_lines <= mine or self._total <= mine:
                return  # provably the same no-op as the full computation
        res = self._resident
        cap = min(float(footprint_lines), self._total)
        mine = res.get(tid, 0.0)
        grow = min(inflow_lines, max(0.0, cap - mine))
        occ = 0.0
        others = 0.0
        for k, v in res.items():
            occ += v
            if k != tid:
                others += v
        free = max(0.0, self._total - occ)
        displacing = max(0.0, inflow_lines - free)
        lines = min(displacing, others)
        mutated = False
        if lines > 0.0 and others > 0.0:
            mutated = True
            frac = min(1.0, lines / others)
            for k in list(res):
                if k == tid:
                    continue
                kept = res[k] * (1.0 - frac)
                if kept < 1.0:  # less than one line: gone
                    del res[k]
                else:
                    res[k] = kept
        if grow > 0.0:
            res[tid] = mine + grow
            mutated = True
        if mutated:
            m_tid[0] = -1
        else:
            m_tid[0] = tid
            self._m_mine[0] = mine
            self._m_limit[0] = float("inf") if others <= 0.0 else free

    def forget(self, tid: int) -> None:
        """Drop all residency bookkeeping for a departed thread."""
        self._m_tid[0] = -1
        self._resident.pop(tid, None)
