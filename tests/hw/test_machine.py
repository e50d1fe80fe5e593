"""Unit tests for the assembled machine (settling, dispatch, transitions)."""

import math

import numpy as np
import pytest

from repro.config import CacheConfig, MachineConfig
from repro.errors import SchedulingError, SimulationError, WorkloadError
from repro.hw.machine import Machine
from repro.sim.engine import Engine
from repro.sim.trace import TraceRecorder
from repro.workloads.patterns import ConstantPattern, PhasedPattern


def _const(rate: float):
    return ConstantPattern(rate).bind(np.random.default_rng(0))


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def machine(engine):
    return Machine(MachineConfig(), engine, TraceRecorder())


class TestThreadRegistration:
    def test_tids_monotone(self, machine):
        a = machine.add_thread("a", _const(1.0), 100.0)
        b = machine.add_thread("b", _const(1.0), 100.0)
        assert b.tid == a.tid + 1

    def test_counters_registered(self, machine):
        t = machine.add_thread("a", _const(1.0), 100.0)
        assert t.tid in machine.counters.threads()

    def test_invalid_work_rejected(self, machine):
        with pytest.raises(WorkloadError):
            machine.add_thread("a", _const(1.0), 0.0)

    def test_negative_footprint_rejected(self, machine):
        with pytest.raises(WorkloadError):
            machine.add_thread("a", _const(1.0), 10.0, footprint_lines=-1.0)

    def test_unknown_thread_lookup(self, machine):
        with pytest.raises(SchedulingError):
            machine.thread(999)


class TestDispatch:
    def test_dispatch_and_run_to_completion(self, machine, engine):
        t = machine.add_thread("a", _const(0.0), 1000.0, footprint_lines=0.0)
        machine.dispatch(0, t.tid)
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e8)
        assert t.finished
        # zero demand, warm cache: exactly solo speed
        assert t.finished_at == pytest.approx(1000.0)

    def test_preemption_vacates_previous(self, machine):
        a = machine.add_thread("a", _const(1.0), 100.0)
        b = machine.add_thread("b", _const(1.0), 100.0)
        machine.dispatch(0, a.tid)
        machine.dispatch(0, b.tid)
        assert a.cpu is None
        assert b.cpu == 0

    def test_migration_moves_thread(self, machine):
        a = machine.add_thread("a", _const(1.0), 100.0)
        machine.dispatch(0, a.tid)
        machine.dispatch(1, a.tid)
        assert a.cpu == 1
        assert machine.cpus[0].tid is None
        assert a.migration_count == 1

    def test_dispatch_blocked_rejected(self, machine):
        a = machine.add_thread("a", _const(1.0), 100.0)
        machine.set_blocked(a.tid, True)
        with pytest.raises(SchedulingError):
            machine.dispatch(0, a.tid)

    def test_dispatch_finished_rejected(self, machine, engine):
        a = machine.add_thread("a", _const(0.0), 10.0, footprint_lines=0.0)
        machine.dispatch(0, a.tid)
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e7)
        with pytest.raises(SchedulingError):
            machine.dispatch(0, a.tid)

    def test_bad_cpu_rejected(self, machine):
        a = machine.add_thread("a", _const(1.0), 100.0)
        with pytest.raises(SchedulingError):
            machine.dispatch(7, a.tid)

    def test_idempotent_redispatch(self, machine):
        a = machine.add_thread("a", _const(1.0), 100.0)
        machine.dispatch(0, a.tid)
        machine.dispatch(0, a.tid)  # no-op, no error
        assert a.cpu == 0


class TestBlocking:
    def test_blocking_vacates_cpu(self, machine):
        a = machine.add_thread("a", _const(1.0), 100.0)
        machine.dispatch(0, a.tid)
        machine.set_blocked(a.tid, True)
        assert a.cpu is None
        assert not a.runnable

    def test_unblock_restores_runnable(self, machine):
        a = machine.add_thread("a", _const(1.0), 100.0)
        machine.set_blocked(a.tid, True)
        machine.set_blocked(a.tid, False)
        assert a.runnable

    def test_blocked_thread_makes_no_progress(self, machine, engine):
        a = machine.add_thread("a", _const(1.0), 1000.0)
        b = machine.add_thread("b", _const(1.0), 1000.0)
        machine.set_blocked(a.tid, True)
        machine.dispatch(0, b.tid)
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e8)
        assert b.finished
        assert a.work_done == 0.0
        assert not a.finished


class TestProgressAccounting:
    def test_work_conserves_speed_times_time(self, machine, engine):
        a = machine.add_thread("a", _const(5.0), 10_000.0, footprint_lines=0.0)
        machine.dispatch(0, a.tid)
        engine.run_until(1_000.0, advancer=machine)
        snap = machine.counters.read(a.tid)
        assert snap.cycles_us == pytest.approx(1_000.0)
        assert snap.work_us == pytest.approx(a.work_done)
        # near-solo speed for a light thread with no cold-cache debt
        assert a.work_done == pytest.approx(1_000.0, rel=0.02)

    def test_transactions_proportional_to_rate(self, machine, engine):
        a = machine.add_thread("a", _const(2.0), 50_000.0, footprint_lines=0.0)
        b = machine.add_thread("b", _const(8.0), 50_000.0, footprint_lines=0.0)
        machine.dispatch(0, a.tid)
        machine.dispatch(1, b.tid)
        engine.run_until(10_000.0, advancer=machine)
        tx_a = machine.counters.read(a.tid).bus_transactions
        tx_b = machine.counters.read(b.tid).bus_transactions
        assert tx_b / tx_a == pytest.approx(4.0, rel=0.05)

    def test_exit_listener_fires(self, machine, engine):
        exited = []
        machine.add_exit_listener(lambda t: exited.append(t.tid))
        a = machine.add_thread("a", _const(0.0), 10.0, footprint_lines=0.0)
        machine.dispatch(0, a.tid)
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e7)
        assert exited == [a.tid]

    def test_horizon_infinite_when_idle(self, machine):
        machine.add_thread("a", _const(1.0), 100.0)
        assert machine.horizon() == math.inf

    def test_cannot_advance_backwards(self, machine, engine):
        engine.run_until(10.0, advancer=machine)
        with pytest.raises(SimulationError):
            machine.advance_to(5.0)


class TestPhaseTransitions:
    def test_phased_demand_changes_at_boundary(self, machine, engine):
        pattern = PhasedPattern(((100.0, 0.0), (100.0, 20.0))).bind(np.random.default_rng(0))
        a = machine.add_thread("a", pattern, 1_000.0, footprint_lines=0.0)
        machine.dispatch(0, a.tid)
        # run through the first (silent) phase only
        engine.run_until(99.0, advancer=machine)
        assert machine.counters.read(a.tid).bus_transactions == pytest.approx(0.0, abs=1e-6)
        engine.run_until(150.0, advancer=machine)
        assert machine.counters.read(a.tid).bus_transactions > 0.0

    def test_completion_exact(self, machine, engine):
        a = machine.add_thread("a", _const(0.0), 500.0, footprint_lines=0.0)
        machine.dispatch(0, a.tid)
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e7)
        assert a.work_done == a.work_total
        assert a.finished_at == pytest.approx(500.0)


class TestRebuildDebt:
    def test_cold_dispatch_charges_debt(self, machine):
        a = machine.add_thread("a", _const(1.0), 10_000.0, footprint_lines=1000.0)
        machine.dispatch(0, a.tid)
        assert a.rebuild_debt == pytest.approx(1000.0)

    def test_migration_multiplies_debt(self, machine, engine):
        a = machine.add_thread(
            "a", _const(1.0), 1e6, footprint_lines=1000.0, migration_sensitivity=3.0
        )
        machine.dispatch(0, a.tid)
        engine.run_until(50_000.0, advancer=machine)  # warm up on cpu 0
        machine.dispatch(1, a.tid)  # migrate to cold cpu 1
        assert a.rebuild_debt == pytest.approx(1000.0 * 4.0, rel=0.05)

    def test_debt_drains(self, machine, engine):
        a = machine.add_thread("a", _const(1.0), 1e6, footprint_lines=1000.0)
        machine.dispatch(0, a.tid)
        engine.run_until(10_000.0, advancer=machine)
        assert a.rebuild_debt == 0.0

    def test_progress_slower_during_rebuild(self, machine, engine):
        cfg = MachineConfig(cache=CacheConfig(rebuild_progress_factor=0.5))
        eng = Engine()
        m = Machine(cfg, eng)
        a = m.add_thread("a", _const(0.0), 1e6, footprint_lines=2000.0)
        m.dispatch(0, a.tid)
        eng.run_until(50.0, advancer=m)
        assert a.work_done == pytest.approx(25.0, rel=0.05)  # half speed while cold

    def test_add_rebuild_debt_api(self, machine):
        a = machine.add_thread("a", _const(1.0), 1e6, footprint_lines=0.0)
        machine.add_rebuild_debt(a.tid, 64.0)
        assert a.rebuild_debt == 64.0
        with pytest.raises(SchedulingError):
            machine.add_rebuild_debt(a.tid, -1.0)


class TestSubUlpResiduals:
    """Regression: horizon pinning at large absolute times.

    At t ~ 5e8 us a debt residual just above the snap tolerance can have a
    drain time smaller than ulp(t), so ``t + drain == t``. The horizon
    must quantize up to the next representable instant (and must never
    serve a cached value equal to `now`), or the engine livelocks with
    the horizon pinned at the current instant and no events firing.
    """

    # ulp(2**40) ~ 2.4e-4 us: any plausible residual drain rounds to zero
    T = float(2**40)

    def _pinned_machine(self, machine):
        a = machine.add_thread("a", _const(1.0), 1e15, footprint_lines=0.0)
        machine.dispatch(0, a.tid)
        machine.advance_to(self.T)
        machine.add_rebuild_debt(a.tid, 1.2e-6)  # just above _SNAP
        return a

    def test_horizon_strictly_ahead_of_sub_ulp_residual(self, machine):
        self._pinned_machine(machine)
        h = machine.horizon()
        assert h > machine.now
        assert h == math.nextafter(machine.now, math.inf)

    def test_residual_drains_instead_of_pinning(self, machine):
        a = self._pinned_machine(machine)
        for _ in range(64):
            if a.rebuild_debt == 0.0:
                break
            h = machine.horizon()
            assert h > machine.now  # forward progress on every step
            machine.advance_to(h)
        assert a.rebuild_debt == 0.0

    def test_stale_cached_horizon_is_recomputed(self, machine):
        a = self._pinned_machine(machine)
        h1 = machine.horizon()
        # Force the state the engine can reach: the cached horizon was a
        # legitimate future instant, the engine advanced exactly to it,
        # and the transition pass left a residual above the snap
        # tolerance without marking dirty. The cache now reads `now`.
        machine._horizon_abs = machine.now
        assert machine.horizon() == h1  # pinned cache rejected, recomputed
        assert a.rebuild_debt > 0.0


class TestUtilisationIntrospection:
    def test_idle_machine_zero_utilisation(self, machine):
        assert machine.bus_utilisation == 0.0

    def test_saturated_utilisation(self, machine, engine):
        for i in range(4):
            t = machine.add_thread(f"s{i}", _const(23.6), 1e6, footprint_lines=0.0)
            machine.dispatch(i, t.tid)
        assert machine.bus_utilisation == pytest.approx(1.0, abs=0.01)

    def test_thread_speed_query(self, machine):
        a = machine.add_thread("a", _const(1.0), 1e6, footprint_lines=0.0)
        assert machine.thread_speed(a.tid) == 0.0  # not running
        machine.dispatch(0, a.tid)
        assert 0.9 < machine.thread_speed(a.tid) <= 1.0
