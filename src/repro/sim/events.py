"""Event types and deterministic ordering for the simulation engine.

Events firing at the same instant are ordered by ``(priority, sequence)``;
the engine's heap orders ``(time, priority, seq, event)`` tuples.
Priorities encode the causal conventions of the simulator: counter samples
are published before the CPU manager makes a quantum decision that reads
them; kernel scheduler ticks run after manager decisions so the kernel
dispatches the freshly unblocked threads within the same instant.
"""

from __future__ import annotations

import enum
from typing import Callable

__all__ = ["EventPriority", "TimerEvent"]


class EventPriority(enum.IntEnum):
    """Relative ordering of events that fire at the same simulated instant.

    Lower values fire first.
    """

    #: Counter sampling / arena publication — must precede decisions.
    SAMPLE = 10

    #: CPU-manager quantum boundary decisions.
    MANAGER = 20

    #: Signal deliveries (block/unblock reaching application threads).
    SIGNAL = 30

    #: Kernel scheduler ticks and dispatch.
    KERNEL = 40

    #: Measurement/bookkeeping callbacks that should observe a settled state.
    OBSERVER = 80

    #: Default for uncategorized callbacks.
    DEFAULT = 50


class TimerEvent:
    """A scheduled callback.

    The engine's heap holds ``(time, priority, seq, event)`` tuples, so
    heap operations compare floats and ints in C. ``seq`` is unique, so a
    comparison never reaches the event itself, and events fire in
    ``(time, priority, seq)`` order.

    Attributes
    ----------
    time:
        Absolute simulated time (µs) at which the event fires.
    priority:
        Tie-break for simultaneous events (see :class:`EventPriority`).
    seq:
        Monotone sequence number; makes ordering total and FIFO among
        events with equal time and priority.
    callback:
        Zero-argument callable invoked when the event fires.
    cancelled:
        Lazily-cancelled events stay in the heap but are skipped.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled")

    def __init__(
        self, time: float, priority: int, seq: int, callback: Callable[[], None]
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
