"""Regression tests for connect/disconnect churn in the CPU manager.

Covers the leaks and wedges an open system exposes: disconnecting a
*blocked* application must release every manager-side resource (estimator
state, boundary/sample checkpoints, per-thread signal counters) and must
unblock the application's threads; the quantum-boundary chain must revive
when an application connects after the arena emptied.
"""

import numpy as np
import pytest

from repro.config import LinuxSchedConfig, MachineConfig, ManagerConfig
from repro.core.manager import CpuManager
from repro.core.policies import LatestQuantumPolicy
from repro.hw.machine import Machine
from repro.sched.linux import LinuxScheduler
from repro.sim.engine import Engine
from repro.sim.trace import TraceRecorder
from repro.workloads.base import Application, ApplicationSpec
from repro.workloads.patterns import ConstantPattern


def _spec(i, width=2, rate=5.0, work=500_000.0):
    return ApplicationSpec(
        name=f"app{i}",
        n_threads=width,
        work_per_thread_us=work,
        pattern=ConstantPattern(rate),
        footprint_lines=256.0,
    )


def _setup(n_apps=3, quantum=20_000.0, work=500_000.0, policy=None):
    engine = Engine()
    machine = Machine(MachineConfig(n_cpus=4), engine, TraceRecorder())
    apps = [
        Application.launch(_spec(i, work=work), machine, np.random.default_rng(i))
        for i in range(n_apps)
    ]
    kernel = LinuxScheduler(LinuxSchedConfig(rebalance_prob=0.0))
    kernel.attach(machine, engine, np.random.default_rng(50))
    policy = LatestQuantumPolicy() if policy is None else policy
    manager = CpuManager(ManagerConfig(quantum_us=quantum), policy, kernel)
    manager.attach(machine, engine)
    manager.register_apps(apps)
    return engine, machine, apps, kernel, manager


class TestDisconnectBlockedApp:
    def _blocked_app(self):
        """Run until mid-quantum and return a setup with one blocked app."""
        engine, machine, apps, kernel, manager = _setup(n_apps=3)
        kernel.start()
        manager.start()
        engine.run_until(10_000.0, advancer=machine)
        blocked = [a for a in apps if a.blocked()]
        assert blocked, "expected an app blocked mid-quantum (3 x 2 threads on 4 CPUs)"
        return engine, machine, apps, kernel, manager, blocked[0]

    def test_descriptor_leaves_circular_list(self):
        engine, machine, apps, kernel, manager, victim = self._blocked_app()
        manager.disconnect_app(victim.app_id)
        assert victim.app_id not in manager.arena.list_order()
        assert not manager.arena.descriptor(victim.app_id).connected

    def test_no_manager_state_leaks(self):
        engine, machine, apps, kernel, manager, victim = self._blocked_app()
        manager.disconnect_app(victim.app_id)
        assert victim.app_id not in manager._boundary_samples
        assert victim.app_id not in manager._last_sample_seen
        assert victim.app_id not in manager._selected
        for tid in victim.tids:
            assert manager.signals.received_counts(tid) == (0, 0)

    def test_threads_unblocked_and_app_finishes(self):
        """A disconnected application must not stay frozen by a stale block."""
        engine, machine, apps, kernel, manager, victim = self._blocked_app()
        manager.disconnect_app(victim.app_id)
        assert not victim.blocked()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e10)
        assert victim.finished

    def test_in_flight_block_does_not_refreeze(self):
        """Signals already in flight at disconnect must land inert."""
        engine, machine, apps, kernel, manager, victim = self._blocked_app()
        # Put a fresh block in flight, then disconnect before delivery.
        manager.signals.send_block([t for t in victim.tids])
        manager.disconnect_app(victim.app_id)
        engine.run_until(engine.now + 5_000.0, advancer=machine)
        assert not victim.blocked()

    def test_disconnect_is_idempotent(self):
        engine, machine, apps, kernel, manager, victim = self._blocked_app()
        manager.disconnect_app(victim.app_id)
        manager.disconnect_app(victim.app_id)  # no-op, no raise
        manager.disconnect_app(999_999)  # never connected: no-op

    def test_boundary_reap_releases_everything(self):
        """The quantum boundary's own disconnect path must not leak either."""
        engine, machine, apps, kernel, manager = _setup(n_apps=2, work=30_000.0)
        kernel.start()
        manager.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e10)
        engine.run_until(engine.now + 2 * manager.config.quantum_us, advancer=machine)
        assert manager.arena.connected() == []
        assert manager._boundary_samples == {}
        assert manager._last_sample_seen == {}
        assert manager._selected == set()

    def test_boundary_reap_releases_policy_state(self):
        """The policy's per-app estimator state must not keep departed apps."""
        policy = LatestQuantumPolicy()
        engine, machine, apps, kernel, manager = _setup(n_apps=2, work=30_000.0, policy=policy)
        kernel.start()
        manager.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e10)
        assert policy._last  # both apps were measured before they left
        engine.run_until(engine.now + 2 * manager.config.quantum_us, advancer=machine)
        assert manager.arena.connected() == []
        assert policy._last == {}
        assert policy._updated == {}


class TestRateHygiene:
    """The manager sanitises measured rates before the estimators see them."""

    def test_clean_rate_drops_non_finite(self):
        from math import inf, nan

        from repro.core.manager import _clean_rate

        assert _clean_rate(nan) is None
        assert _clean_rate(inf) is None
        assert _clean_rate(-inf) is None

    def test_clean_rate_clamps_negatives(self):
        from repro.core.manager import _clean_rate

        assert _clean_rate(-0.5) == 0.0
        assert _clean_rate(-1e-12) == 0.0
        assert _clean_rate(0.0) == 0.0
        assert _clean_rate(3.25) == 3.25


class TestReconnect:
    """An app id reconnecting after a disconnect starts from a clean slate."""

    def _reconnected(self):
        """Disconnect a mid-run app, then connect the same id again."""
        engine, machine, apps, kernel, manager = _setup(n_apps=3)
        kernel.start()
        manager.start()
        engine.run_until(30_000.0, advancer=machine)
        victim = apps[0]
        manager.disconnect_app(victim.app_id)
        manager.register_app(victim)
        return engine, machine, apps, kernel, manager, victim

    def test_signal_counters_start_at_zero(self):
        engine, machine, apps, kernel, manager, victim = self._reconnected()
        for tid in victim.tids:
            assert manager.signals.received_counts(tid) == (0, 0)

    def test_first_sample_is_live_counter_snapshot(self):
        # The runtime library starts accumulating at connect time: the
        # baseline published at reconnection must be the threads' *current*
        # counters, not zero — otherwise the first quantum's rate spans the
        # application's previous life and poisons the estimator with a
        # lifetime average.
        engine, machine, apps, kernel, manager, victim = self._reconnected()
        snap = machine.counters.read_many(victim.tids)
        assert snap.bus_transactions > 0  # the previous life left traffic
        latest = manager.arena.descriptor(victim.app_id).latest
        assert latest is not None
        assert latest.cum_transactions == snap.bus_transactions
        assert latest.cum_runtime_us == snap.cycles_us
        assert manager._boundary_samples[victim.app_id] == latest

    def test_reconnected_threads_accept_signals_again(self):
        # forget_thread at disconnect must not leave the threads muted:
        # after reconnection the signal path works like on day one.
        engine, machine, apps, kernel, manager, victim = self._reconnected()
        assert not victim.blocked()
        live = [t for t in victim.tids if not machine.thread(t).finished]
        manager.signals.send_block(live)
        engine.run_until(engine.now + 5_000.0, advancer=machine)
        assert victim.blocked()
        manager.signals.send_unblock(live)
        engine.run_until(engine.now + 5_000.0, advancer=machine)
        assert not victim.blocked()

    def test_reconnected_app_rejoins_circular_list_and_finishes(self):
        engine, machine, apps, kernel, manager, victim = self._reconnected()
        assert victim.app_id in manager.arena.list_order()
        assert victim.app_id in manager.selected
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e10)
        assert victim.finished


class TestBoundaryRevival:
    def test_late_connection_revives_quantum_chain(self):
        """An app connecting after the arena emptied must still be managed."""
        engine, machine, apps, kernel, manager = _setup(n_apps=1, work=30_000.0)
        kernel.start()
        manager.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e10)
        # Let the boundary chain die (arena empties at the next boundary).
        engine.run_until(engine.now + 3 * manager.config.quantum_us, advancer=machine)
        assert manager.arena.connected() == []
        quanta_before = manager.quanta

        late = Application.launch(_spec(9, work=30_000.0), machine, np.random.default_rng(9))
        manager.register_app(late)
        kernel.on_new_threads()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e10)
        assert late.finished
        assert manager.quanta > quanta_before

    def test_quanta_do_not_tick_while_empty(self):
        engine, machine, apps, kernel, manager = _setup(n_apps=1, work=30_000.0)
        kernel.start()
        manager.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e10)
        engine.run_until(engine.now + 2 * manager.config.quantum_us, advancer=machine)
        quanta = manager.quanta
        engine.run_until(engine.now + 10 * manager.config.quantum_us, advancer=machine)
        assert manager.quanta == quanta
