"""Struct-of-arrays backing store for per-thread simulation state.

The machine's hot loops (lane entry build, batched advance, horizon scan,
transition commit) read and write a handful of per-thread scalars tens of
thousands of times per run. Keeping those scalars in Python objects makes
every loop iteration a chain of attribute lookups; keeping them in
contiguous numpy arrays — one row per thread — turns each loop into a few
elementwise array passes.

:class:`ThreadStore` owns those arrays. :class:`repro.hw.machine.ThreadState`
is a thin index-backed view over one row: attribute reads gather from the
arrays, attribute writes scatter into them, so the store and the object API
can never disagree. Rows are append-only (``row == tid - 1`` under the
machine's monotone tid assignment; finished threads keep their row), and
the arrays grow by doubling, so a long-lived open-system run never pays
per-thread reallocation.

Field groups
------------
* float64 — ``work_done``, ``work_total``, ``rebuild_debt``,
  ``next_io_at_work``, ``run_time_us``, ``footprint_lines``, plus the
  demand-segment cache ``seg_rate`` / ``seg_end`` (valid while
  ``work_done < seg_end``; ``seg_end`` starts at ``-inf`` = never queried).
* int64 — ``cpu``, ``last_cpu`` (−1 encodes "none").
* bool — ``blocked``, ``stalled``, ``finished``, ``in_io``.

Growth reallocates the arrays, so long-lived references to a *specific
array object* must be re-fetched from the store after :meth:`add`; the
machine's hot paths read ``store.<field>`` freshly on every pass.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ThreadStore"]

#: Fields stored as float64 rows.
FLOAT_FIELDS = (
    "work_done",
    "work_total",
    "rebuild_debt",
    "next_io_at_work",
    "run_time_us",
    "footprint_lines",
    "seg_rate",
    "seg_end",
)
#: Fields stored as int64 rows (−1 = none).
INT_FIELDS = ("cpu", "last_cpu")
#: Fields stored as bool rows.
BOOL_FIELDS = ("blocked", "stalled", "finished", "in_io")


class ThreadStore:
    """Contiguous per-thread scalar arrays; one row per registered thread."""

    __slots__ = FLOAT_FIELDS + INT_FIELDS + BOOL_FIELDS + ("n", "_capacity")

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("store capacity must be positive")
        self.n = 0
        self._capacity = capacity
        for name in FLOAT_FIELDS:
            setattr(self, name, np.zeros(capacity))
        for name in INT_FIELDS:
            setattr(self, name, np.full(capacity, -1, dtype=np.int64))
        for name in BOOL_FIELDS:
            setattr(self, name, np.zeros(capacity, dtype=bool))

    def _grow(self) -> None:
        cap = self._capacity * 2
        for name in FLOAT_FIELDS + INT_FIELDS + BOOL_FIELDS:
            old = getattr(self, name)
            fresh = np.empty(cap, dtype=old.dtype)
            fresh[: self.n] = old[: self.n]
            setattr(self, name, fresh)
        self._capacity = cap

    def add(self) -> int:
        """Append a fresh row with default state; returns its index."""
        if self.n == self._capacity:
            self._grow()
        i = self.n
        self.n = i + 1
        self.work_done[i] = 0.0
        self.work_total[i] = 0.0
        self.rebuild_debt[i] = 0.0
        self.next_io_at_work[i] = math.inf
        self.run_time_us[i] = 0.0
        self.footprint_lines[i] = 0.0
        self.seg_rate[i] = 0.0
        self.seg_end[i] = -math.inf  # stale: first entry build refreshes
        self.cpu[i] = -1
        self.last_cpu[i] = -1
        self.blocked[i] = False
        self.stalled[i] = False
        self.finished[i] = False
        self.in_io[i] = False
        return i
