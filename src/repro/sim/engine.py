"""The discrete-event engine: simulated clock plus a timer-event heap.

The engine is deliberately small. It knows nothing about buses, caches or
schedulers; it provides exactly three facilities:

1. a monotone simulated clock (:attr:`Engine.now`, microseconds),
2. timer events — ``schedule_at`` / ``schedule_after`` return an
   :class:`EventHandle` that supports O(1) lazy cancellation,
3. the :meth:`Engine.run` loop, which interleaves timer events with
   *settling* of a continuous component (anything implementing the
   :class:`Advancer` protocol).

Determinism: given the same sequence of ``schedule_*`` calls, events fire in
an identical order (ties broken by priority then insertion sequence).

The heap holds ``(time, priority, seq, event)`` tuples rather than the
events themselves: ``heapq`` then compares floats and ints in C instead of
calling a generated ``__lt__``, and since ``seq`` is unique a comparison
never reaches the event.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Protocol

from ..errors import SimulationError
from .events import EventPriority, TimerEvent

__all__ = ["Advancer", "Engine", "EventHandle"]


class Advancer(Protocol):
    """A continuous component the engine settles between timer events.

    The contract: ``horizon()`` returns the earliest *absolute* time at
    which the component's internal state changes qualitatively on its own
    (``math.inf`` if never); ``advance_to(t)`` integrates the component's
    state forward to ``t``, where ``t`` never exceeds the last reported
    horizon, and processes any internal transition landing exactly on ``t``.
    """

    def horizon(self) -> float:
        """Earliest absolute time of the next internal transition."""
        ...

    def advance_to(self, t: float) -> None:
        """Integrate state forward to absolute time ``t``."""
        ...


class EventHandle:
    """Handle to a scheduled timer event; supports cancellation."""

    __slots__ = ("_event", "_engine")

    def __init__(self, event: TimerEvent, engine: "Engine") -> None:
        self._event = event
        self._engine = engine

    @property
    def time(self) -> float:
        """Absolute firing time of the event (µs)."""
        return self._event.time

    @property
    def active(self) -> bool:
        """Whether the event is still pending (not cancelled, not fired)."""
        return not self._event.cancelled

    def cancel(self) -> None:
        """Cancel the event. Cancelling twice (or after firing) is a no-op.

        Cancellation is lazy (O(1)): the event stays in the heap, marked
        dead, and is discarded when it surfaces. The live-event count is
        adjusted here so ``Engine.pending_events`` stays exact.
        """
        if not self._event.cancelled:
            self._event.cancelled = True
            self._engine._pending -= 1
            self._engine._events_cancelled += 1


class Engine:
    """Simulated clock and timer-event heap.

    Examples
    --------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule_after(5.0, lambda: fired.append(eng.now))
    >>> eng.run_until(10.0)
    >>> fired
    [5.0]
    >>> eng.now
    10.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, TimerEvent]] = []
        self._seq = 0
        self._pending = 0  # live (non-cancelled) events
        self._events_fired = 0
        self._events_cancelled = 0

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    # -- scheduling ------------------------------------------------------------

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = EventPriority.DEFAULT,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute time ``time``.

        Raises
        ------
        SimulationError
            If ``time`` precedes the current clock.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        if not math.isfinite(time):
            raise SimulationError("cannot schedule an event at infinite time")
        ev = TimerEvent(float(time), int(priority), self._seq, callback)
        self._seq += 1
        heapq.heappush(self._heap, (ev.time, ev.priority, ev.seq, ev))
        self._pending += 1
        return EventHandle(ev, self)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = EventPriority.DEFAULT,
    ) -> EventHandle:
        """Schedule ``callback`` after a relative ``delay`` (µs)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, priority)

    # -- introspection -----------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events."""
        return self._pending

    @property
    def events_fired(self) -> int:
        """Total timer callbacks dispatched over the engine's lifetime."""
        return self._events_fired

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled over the engine's lifetime."""
        return self._seq

    @property
    def events_cancelled(self) -> int:
        """Events cancelled via their handle before firing.

        Together with the other counters this supports the exact ledger
        ``pending_events == events_scheduled − events_fired −
        events_cancelled`` that the audit layer asserts at every hook.
        """
        return self._events_cancelled

    def cancel_pending(self) -> None:
        """Cancel every pending event and drop the heap.

        Each live event counts as cancelled, so the ledger above still
        holds. The heap holds the callbacks, which reference the
        simulation's objects: dropping it breaks those reference cycles
        once a run is over.
        """
        for entry in self._heap:
            ev = entry[3]
            if not ev.cancelled:
                ev.cancelled = True
                self._pending -= 1
                self._events_cancelled += 1
        self._heap.clear()

    def next_event_time(self) -> float:
        """Absolute time of the earliest pending event, or ``inf``."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else math.inf

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)

    # -- execution ---------------------------------------------------------------

    def _fire_due(self) -> int:
        """Fire every pending event whose time equals the current clock.

        Events scheduled *during* dispatch for the same instant also fire,
        in priority/sequence order. Returns the number fired.

        This is the batch-fire half of the settle fast path: the run loops
        settle the advancer *once* up to a timestamp and then drain every
        event due at that instant, rather than interleaving one settle per
        event. Callbacks that reconfigure the machine only mark it dirty;
        the (expensive) re-solve happens lazily at the next horizon query,
        so N same-timestamp preemptions cost one bus solve, not N.
        """
        fired = 0
        while True:
            self._drop_cancelled()
            if not self._heap or self._heap[0][0] > self._now:
                return fired
            ev = heapq.heappop(self._heap)[3]
            self._pending -= 1
            # Count the dispatch *before* the callback so the ledger
            # ``pending == scheduled − fired − cancelled`` holds exactly at
            # every point a callback can observe it (the audit layer does).
            self._events_fired += 1
            ev.cancelled = True  # mark as consumed so handles report inactive
            ev.callback()
            fired += 1

    def run_until(self, end_time: float, advancer: Advancer | None = None) -> None:
        """Advance simulated time to ``end_time``, firing events on the way.

        If an ``advancer`` is supplied, the engine settles it across every
        inter-event interval, honouring its horizons.
        """
        if end_time < self._now:
            raise SimulationError(f"run_until({end_time}) is in the past (now={self._now})")
        while True:
            t_event = self.next_event_time()
            t_horizon = advancer.horizon() if advancer is not None else math.inf
            t_next = min(t_event, t_horizon, end_time)
            if t_next > self._now:
                if advancer is not None:
                    advancer.advance_to(t_next)
                self._now = t_next
            elif advancer is not None and t_horizon <= self._now:
                # A horizon landing exactly on the current instant: give the
                # advancer the chance to process the transition.
                advancer.advance_to(self._now)
            self._fire_due()
            if self._now >= end_time:
                return

    def run(
        self,
        advancer: Advancer | None = None,
        stop: Callable[[], bool] | None = None,
        max_time: float = math.inf,
    ) -> None:
        """Run until ``stop()`` is true, no work remains, or ``max_time``.

        "No work remains" means there are no pending events *and* the
        advancer (if any) reports an infinite horizon.

        Raises
        ------
        SimulationError
            If ``max_time`` is exceeded (guards against runaway workloads).
        """
        stalled = 0
        while True:
            if stop is not None and stop():
                return
            t_event = self.next_event_time()
            t_horizon = advancer.horizon() if advancer is not None else math.inf
            t_next = min(t_event, t_horizon)
            if math.isinf(t_next):
                return  # quiescent: nothing will ever happen again
            if t_next > max_time:
                raise SimulationError(
                    f"simulation exceeded max_time={max_time} (next activity at {t_next})"
                )
            if t_next > self._now:
                if advancer is not None:
                    advancer.advance_to(t_next)
                self._now = t_next
                stalled = 0
            elif advancer is not None and t_horizon <= self._now:
                advancer.advance_to(self._now)
            fired = self._fire_due()
            if t_next <= self._now and fired == 0:
                # The advancer claims a transition at `now` but time is not
                # moving and no events fired: detect livelock instead of
                # spinning forever.
                stalled += 1
                if stalled > 10_000:
                    raise SimulationError(
                        f"livelock at t={self._now}: horizon pinned at the current "
                        "instant with no events firing"
                    )
            else:
                stalled = 0
