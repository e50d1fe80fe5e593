"""Unit tests for the discrete-event engine."""

import math
import random

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import EventPriority


class TestClock:
    def test_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_custom_start(self):
        assert Engine(start_time=5.0).now == 5.0

    def test_run_until_advances(self):
        eng = Engine()
        eng.run_until(100.0)
        assert eng.now == 100.0

    def test_run_until_past_raises(self):
        eng = Engine(start_time=10.0)
        with pytest.raises(SimulationError):
            eng.run_until(5.0)


class TestScheduling:
    def test_event_fires_at_time(self):
        eng = Engine()
        fired = []
        eng.schedule_at(7.0, lambda: fired.append(eng.now))
        eng.run_until(10.0)
        assert fired == [7.0]

    def test_schedule_after(self):
        eng = Engine()
        fired = []
        eng.schedule_after(3.0, lambda: fired.append(eng.now))
        eng.run_until(10.0)
        assert fired == [3.0]

    def test_past_event_rejected(self):
        eng = Engine(start_time=10.0)
        with pytest.raises(SimulationError):
            eng.schedule_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule_after(-1.0, lambda: None)

    def test_infinite_time_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule_at(math.inf, lambda: None)

    def test_fifo_among_equal_events(self):
        eng = Engine()
        order = []
        for i in range(5):
            eng.schedule_at(1.0, lambda i=i: order.append(i))
        eng.run_until(2.0)
        assert order == [0, 1, 2, 3, 4]

    def test_priority_order_at_same_instant(self):
        eng = Engine()
        order = []
        eng.schedule_at(1.0, lambda: order.append("kernel"), priority=EventPriority.KERNEL)
        eng.schedule_at(1.0, lambda: order.append("sample"), priority=EventPriority.SAMPLE)
        eng.schedule_at(1.0, lambda: order.append("manager"), priority=EventPriority.MANAGER)
        eng.run_until(2.0)
        assert order == ["sample", "manager", "kernel"]

    def test_random_events_fire_in_time_priority_seq_order(self):
        # 1,000 events over few distinct times and priorities, so ties on
        # (time, priority) are common and the insertion sequence decides.
        rnd = random.Random(2003)
        eng = Engine()
        fired = []
        keys = []
        handles = []
        priorities = list(EventPriority)
        for seq in range(1000):
            key = (float(rnd.randrange(50)), int(rnd.choice(priorities)), seq)
            keys.append(key)
            handles.append(
                eng.schedule_at(key[0], lambda k=key: fired.append(k), priority=key[1])
            )
        cancelled = set(rnd.sample(range(1000), 300))
        for seq in cancelled:
            handles[seq].cancel()
        eng.run_until(100.0)
        assert fired == sorted(k for k in keys if k[2] not in cancelled)
        assert eng.events_fired == 700
        assert eng.events_cancelled == 300
        assert eng.pending_events == 0

    def test_event_scheduled_during_dispatch_same_instant_fires(self):
        eng = Engine()
        order = []

        def outer():
            order.append("outer")
            eng.schedule_at(eng.now, lambda: order.append("inner"))

        eng.schedule_at(1.0, outer)
        eng.run_until(2.0)
        assert order == ["outer", "inner"]

    def test_cancellation(self):
        eng = Engine()
        fired = []
        handle = eng.schedule_at(1.0, lambda: fired.append(1))
        handle.cancel()
        eng.run_until(2.0)
        assert fired == []
        assert not handle.active

    def test_double_cancel_is_noop(self):
        eng = Engine()
        handle = eng.schedule_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()

    def test_pending_events_counts_live(self):
        eng = Engine()
        h1 = eng.schedule_at(1.0, lambda: None)
        eng.schedule_at(2.0, lambda: None)
        assert eng.pending_events == 2
        h1.cancel()
        eng.run_until(3.0)

    def test_next_event_time(self):
        eng = Engine()
        eng.schedule_at(5.0, lambda: None)
        eng.schedule_at(3.0, lambda: None)
        assert eng.next_event_time() == 3.0

    def test_next_event_time_empty(self):
        assert Engine().next_event_time() == math.inf

    def test_next_event_skips_cancelled(self):
        eng = Engine()
        h = eng.schedule_at(1.0, lambda: None)
        eng.schedule_at(4.0, lambda: None)
        h.cancel()
        assert eng.next_event_time() == 4.0


class TestEventLedger:
    """pending == scheduled − fired − cancelled, exactly, at all times."""

    def _balanced(self, eng):
        return (
            eng.pending_events
            == eng.events_scheduled - eng.events_fired - eng.events_cancelled
        )

    def test_ledger_holds_inside_callbacks(self):
        # Regression: fired-event counting used to be batched at the end of
        # a dispatch round, so the ledger was off by the number of events
        # already dispatched whenever a same-instant callback observed it
        # (the audit layer does exactly that).
        eng = Engine()
        observed = []
        for _ in range(3):
            eng.schedule_at(5.0, lambda: observed.append(self._balanced(eng)))
        eng.run_until(10.0)
        assert observed == [True, True, True]

    def test_ledger_holds_with_cancellations_and_chains(self):
        eng = Engine()
        observed = []

        def chained():
            observed.append(self._balanced(eng))
            eng.schedule_at(eng.now, lambda: observed.append(self._balanced(eng)))
            doomed = eng.schedule_at(eng.now + 1.0, lambda: None)
            doomed.cancel()
            observed.append(self._balanced(eng))

        eng.schedule_at(2.0, chained)
        eng.run_until(5.0)
        assert observed and all(observed)
        assert self._balanced(eng)
        assert eng.events_cancelled == 1


class _FakeAdvancer:
    """Advancer that transitions at fixed times and records advances."""

    def __init__(self, transitions):
        self.transitions = sorted(transitions)
        self.advanced_to = []
        self.time = 0.0

    def horizon(self):
        for t in self.transitions:
            if t > self.time:
                return t
        return math.inf

    def advance_to(self, t):
        self.time = t
        self.advanced_to.append(t)


class TestRunWithAdvancer:
    def test_stops_at_horizons(self):
        eng = Engine()
        adv = _FakeAdvancer([2.0, 5.0])
        eng.schedule_at(10.0, lambda: None)
        eng.run(advancer=adv)
        assert 2.0 in adv.advanced_to and 5.0 in adv.advanced_to
        assert eng.now == 10.0

    def test_quiescent_returns(self):
        eng = Engine()
        adv = _FakeAdvancer([])
        eng.run(advancer=adv)
        assert eng.now == 0.0

    def test_stop_predicate(self):
        eng = Engine()
        count = []

        def tick():
            count.append(1)
            eng.schedule_after(1.0, tick)

        eng.schedule_after(1.0, tick)
        eng.run(stop=lambda: len(count) >= 5)
        assert len(count) == 5

    def test_max_time_guard(self):
        eng = Engine()

        def forever():
            eng.schedule_after(10.0, forever)

        eng.schedule_after(10.0, forever)
        with pytest.raises(SimulationError):
            eng.run(max_time=55.0)

    def test_run_until_settles_advancer_between_events(self):
        eng = Engine()
        adv = _FakeAdvancer([1.5])
        eng.schedule_at(1.0, lambda: None)
        eng.run_until(2.0, advancer=adv)
        # advancer settled at the event time, its own horizon, and the end
        assert adv.advanced_to == [1.0, 1.5, 2.0]
