"""Graceful-degradation hardening of the CPU manager under injected faults."""

import numpy as np
import pytest

from repro.config import LinuxSchedConfig, MachineConfig, ManagerConfig
from repro.core.manager import CpuManager
from repro.core.policies import LatestQuantumPolicy, QuantaWindowPolicy
from repro.experiments.base import SimulationSpec, run_simulation
from repro.faults import FaultInjector, FaultPlan
from repro.hw.machine import Machine
from repro.rng import RngRegistry
from repro.sched.linux import LinuxScheduler
from repro.sim.engine import Engine
from repro.sim.trace import TraceRecorder
from repro.workloads.base import Application, ApplicationSpec
from repro.workloads.patterns import ConstantPattern
from repro.workloads.microbench import bbma_spec
from repro.workloads.suites import PAPER_APPS


def _managed(
    plan,
    hardening=True,
    n_apps=3,
    quantum=40_000.0,
    work=1e9,
    watchdog_quanta=2,
    staleness_quanta=2,
    signal_max_retries=6,
    policy=None,
):
    """A 4-CPU managed system with a live fault injector (no auditor)."""
    engine = Engine()
    machine = Machine(MachineConfig(n_cpus=4), engine, TraceRecorder())
    apps = [
        Application.launch(
            ApplicationSpec(
                name=f"app{i}",
                n_threads=2,
                work_per_thread_us=work,
                pattern=ConstantPattern(5.0),
                footprint_lines=256.0,
            ),
            machine,
            np.random.default_rng(i),
        )
        for i in range(n_apps)
    ]
    kernel = LinuxScheduler(LinuxSchedConfig(rebalance_prob=0.0))
    kernel.attach(machine, engine, np.random.default_rng(50))
    injector = FaultInjector(plan, RngRegistry(5))
    manager = CpuManager(
        ManagerConfig(
            quantum_us=quantum,
            hardening=hardening,
            watchdog_quanta=watchdog_quanta,
            staleness_quanta=staleness_quanta,
            signal_max_retries=signal_max_retries,
        ),
        policy or LatestQuantumPolicy(),
        kernel,
        faults=injector,
    )
    manager.attach(machine, engine)
    manager.register_apps(apps)
    injector.schedule_app_faults(engine, machine, apps)
    kernel.start()
    manager.start()
    return engine, machine, apps, manager, injector


def _connected_ids(manager):
    return {d.app_id for d in manager.arena.connected()}


class TestImmediateRelease:
    """Satellite: mid-quantum death releases the arena slot immediately."""

    def test_killed_app_disconnects_before_next_boundary(self):
        # An inert-but-enabled plan: the exit listener is armed, nothing
        # else ever fires (drop prob 0 would disable the injector).
        plan = FaultPlan(crash_prob=1.0, crash_mean_time_us=1e12)
        engine, machine, apps, manager, _ = _managed(plan)
        engine.run_until(60_000.0, advancer=machine)  # mid-second-quantum
        victim = apps[0]
        assert victim.app_id in _connected_ids(manager)
        for t in victim.threads:
            machine.kill_thread(t.tid)
        # No further events processed: the exit listener already released it.
        assert victim.app_id not in _connected_ids(manager)

    def test_disconnect_app_mid_quantum_unblocks_and_releases(self):
        plan = FaultPlan(crash_prob=1.0, crash_mean_time_us=1e12)
        engine, machine, apps, manager, _ = _managed(plan)
        engine.run_until(60_000.0, advancer=machine)
        victim = next(
            a for a in apps if a.app_id not in manager.selected
            and a.app_id in _connected_ids(manager)
        )
        assert all(machine.thread(t.tid).blocked for t in victim.threads)
        manager.disconnect_app(victim.app_id)
        assert victim.app_id not in _connected_ids(manager)
        # The exit-unblock path freed its threads (a departing app must
        # not leave its process wedged in the blocked state).
        assert not any(machine.thread(t.tid).blocked for t in victim.threads)


class TestWatchdog:

    def test_hung_apps_quarantined(self):
        plan = FaultPlan(hang_prob=1.0, hang_mean_time_us=5_000.0)
        engine, machine, apps, manager, injector = _managed(plan)
        engine.run_until(600_000.0, advancer=machine)
        assert injector.apps_hung == 3
        assert injector.apps_quarantined >= 1
        # Quarantined apps are off the arena and their threads are parked
        # off-CPU in the blocked state (SIGSTOP semantics, no cooperation).
        quarantined = [
            a for a in apps if a.app_id not in _connected_ids(manager)
        ]
        assert quarantined
        for app in quarantined:
            for t in app.threads:
                state = machine.thread(t.tid)
                assert state.blocked and state.cpu is None

    def test_hardening_off_never_quarantines(self):
        plan = FaultPlan(hang_prob=1.0, hang_mean_time_us=5_000.0)
        engine, machine, apps, manager, injector = _managed(plan, hardening=False)
        engine.run_until(600_000.0, advancer=machine)
        assert injector.apps_hung == 3
        assert injector.apps_quarantined == 0
        assert _connected_ids(manager) == {a.app_id for a in apps}

    def test_slow_apps_not_quarantined(self):
        # Transient stalls shorter than the watchdog patience: degraded
        # progress is not a hang and must never be quarantined.
        plan = FaultPlan(
            stall_prob=1.0, stall_duration_us=10_000.0, stall_check_period_us=80_000.0
        )
        engine, machine, apps, manager, injector = _managed(
            plan, watchdog_quanta=3
        )
        engine.run_until(600_000.0, advancer=machine)
        assert injector.stalls_injected > 0
        assert injector.apps_quarantined == 0


class TestStalenessFallback:

    def test_all_stale_falls_back_to_head_first(self):
        # Every read after the first returns a stale snapshot: no rate can
        # ever be formed, so estimates freeze and selection degrades to
        # bandwidth-agnostic head-first.
        plan = FaultPlan(pmc_stale_prob=1.0)
        engine, machine, apps, manager, injector = _managed(
            plan, policy=QuantaWindowPolicy()
        )
        engine.run_until(600_000.0, advancer=machine)
        assert injector.pmc_stale > 0
        assert injector.stale_fallbacks > 0
        assert injector.headfirst_fallbacks > 0

    def test_clean_reads_never_fall_back(self):
        # App faults only: counter reads stay pristine, estimates stay
        # fresh, and the staleness machinery must not trigger.
        plan = FaultPlan(
            stall_prob=0.1, stall_duration_us=5_000.0, stall_check_period_us=100_000.0
        )
        engine, machine, apps, manager, injector = _managed(
            plan, policy=QuantaWindowPolicy()
        )
        engine.run_until(400_000.0, advancer=machine)
        assert injector.headfirst_fallbacks == 0


class TestSignalRetries:

    def _spec(self, drop, hardening=True, retries=6, audit=True):
        app = PAPER_APPS["CG"].scaled(0.05)
        return SimulationSpec(
            targets=[app, app],
            background=[bbma_spec(), bbma_spec()],
            scheduler=QuantaWindowPolicy(),
            manager=ManagerConfig(
                quantum_us=20_000.0, hardening=hardening, signal_max_retries=retries
            ),
            seed=13,
            audit=audit,
            faults=FaultPlan(signal_drop_prob=drop, signal_delay_us=100.0),
        )

    def test_lossy_signals_retried_and_run_completes_clean(self):
        result = run_simulation(self._spec(0.4))
        assert result.faults.signals_dropped > 0
        assert result.faults.signal_retries > 0
        assert result.audit is not None and result.audit.ok

    def test_retries_disabled_by_config(self):
        # Without the verifier a lost unblock can wedge an app
        # indefinitely (this is exactly why the verifier exists), so run
        # time-bounded rather than to completion.
        plan = FaultPlan(signal_drop_prob=0.4, signal_delay_us=100.0)
        engine, machine, apps, manager, injector = _managed(
            plan, signal_max_retries=0, quantum=20_000.0
        )
        engine.run_until(600_000.0, advancer=machine)
        assert manager.signals.dropped > 0
        assert injector.signal_retries == 0


class TestDegradationCounters:

    def test_counters_surface_on_run_result(self):
        app = PAPER_APPS["CG"].scaled(0.05)
        spec = SimulationSpec(
            targets=[app, app],
            background=[bbma_spec(), bbma_spec()],
            scheduler=QuantaWindowPolicy(),
            seed=13,
            faults=FaultPlan(pmc_jitter=0.2, pmc_drop_prob=0.1),
        )
        result = run_simulation(spec)
        assert result.faults is not None
        assert result.faults.any_injected
        assert result.faults.pmc_jittered + result.faults.pmc_dropped > 0
        d = result.faults.to_dict()
        assert d["pmc_dropped"] == result.faults.pmc_dropped

    def test_faults_require_policy_scheduler(self):
        from repro.errors import ConfigError

        app = PAPER_APPS["CG"].scaled(0.05)
        spec = SimulationSpec(
            targets=[app],
            scheduler="dedicated",
            faults=FaultPlan(pmc_drop_prob=0.5),
        )
        with pytest.raises(ConfigError):
            run_simulation(spec)
