"""Unit tests for the counter bank and snapshots."""

import pytest

from repro.errors import CounterError
from repro.hw.counters import CounterBank, CounterSnapshot


@pytest.fixture
def bank() -> CounterBank:
    b = CounterBank()
    b.register(1)
    b.register(2)
    return b


class TestRegistration:
    def test_starts_at_zero(self, bank):
        snap = bank.read(1)
        assert snap.bus_transactions == 0.0
        assert snap.cycles_us == 0.0
        assert snap.work_us == 0.0

    def test_double_register_rejected(self, bank):
        with pytest.raises(CounterError):
            bank.register(1)

    def test_known(self, bank):
        assert 1 in bank.threads()
        assert 99 not in bank.threads()

    def test_threads_sorted(self, bank):
        assert bank.threads() == [1, 2]


class TestCredit:
    def test_accumulates(self, bank):
        bank.credit(1, bus_transactions=5.0, cycles_us=2.0, work_us=1.0)
        bank.credit(1, bus_transactions=3.0)
        snap = bank.read(1)
        assert snap.bus_transactions == 8.0
        assert snap.cycles_us == 2.0

    def test_unknown_thread_rejected(self, bank):
        with pytest.raises(CounterError):
            bank.credit(99, bus_transactions=1.0)

    def test_negative_increment_rejected(self, bank):
        with pytest.raises(CounterError):
            bank.credit(1, bus_transactions=-1.0)

    def test_per_thread_isolation(self, bank):
        bank.credit(1, bus_transactions=5.0)
        assert bank.read(2).bus_transactions == 0.0


class TestRead:
    def test_unknown_read_rejected(self, bank):
        with pytest.raises(CounterError):
            bank.read(42)

    def test_read_many_accumulates(self, bank):
        bank.credit(1, bus_transactions=5.0, cycles_us=1.0)
        bank.credit(2, bus_transactions=7.0, cycles_us=2.0)
        total = bank.read_many([1, 2])
        assert total.bus_transactions == 12.0
        assert total.cycles_us == 3.0


class TestSnapshotDelta:
    def test_delta(self):
        early = CounterSnapshot(10.0, 5.0, 3.0)
        late = CounterSnapshot(15.0, 8.0, 4.0)
        d = late.delta(early)
        assert d.bus_transactions == 5.0
        assert d.cycles_us == 3.0
        assert d.work_us == 1.0

    def test_out_of_order_rejected(self):
        early = CounterSnapshot(10.0, 5.0, 3.0)
        late = CounterSnapshot(15.0, 8.0, 4.0)
        with pytest.raises(CounterError):
            early.delta(late)
