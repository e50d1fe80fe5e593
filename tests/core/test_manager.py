"""CPU manager integration tests (arena + signals + policy + kernel)."""

import numpy as np
import pytest

from repro.config import LinuxSchedConfig, MachineConfig, ManagerConfig
from repro.core.manager import CpuManager
from repro.core.policies import LatestQuantumPolicy, QuantaWindowPolicy
from repro.errors import SchedulingError
from repro.hw.machine import Machine
from repro.sched.linux import LinuxScheduler
from repro.sim.engine import Engine
from repro.sim.trace import TraceRecorder
from repro.workloads.base import Application, ApplicationSpec
from repro.workloads.patterns import ConstantPattern


def _setup(widths_rates, policy=None, quantum=20_000.0, work=200_000.0, n_cpus=4):
    engine = Engine()
    machine = Machine(MachineConfig(n_cpus=n_cpus), engine, TraceRecorder())
    apps = []
    for i, (w, r) in enumerate(widths_rates):
        spec = ApplicationSpec(
            name=f"app{i}",
            n_threads=w,
            work_per_thread_us=work,
            pattern=ConstantPattern(r),
            footprint_lines=256.0,
        )
        apps.append(Application.launch(spec, machine, np.random.default_rng(i)))
    kernel = LinuxScheduler(LinuxSchedConfig(rebalance_prob=0.0))
    kernel.attach(machine, engine, np.random.default_rng(50))
    manager = CpuManager(
        ManagerConfig(quantum_us=quantum), policy or LatestQuantumPolicy(), kernel
    )
    manager.attach(machine, engine)
    manager.register_apps(apps)
    return engine, machine, apps, kernel, manager


def _run(engine, machine, apps, kernel, manager, until=None):
    kernel.start()
    manager.start()
    if until is None:
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e10)
    else:
        engine.run_until(until, advancer=machine)


class TestLifecycle:
    def test_all_apps_complete(self):
        engine, machine, apps, kernel, manager = _setup([(2, 5.0), (2, 5.0), (1, 1.0), (1, 1.0)])
        _run(engine, machine, apps, kernel, manager)
        assert all(a.finished for a in apps)

    def test_quanta_advance(self):
        engine, machine, apps, kernel, manager = _setup([(2, 5.0), (2, 5.0), (2, 5.0)])
        _run(engine, machine, apps, kernel, manager)
        assert manager.quanta > 2

    def test_too_wide_app_rejected_at_connect(self):
        with pytest.raises(SchedulingError):
            _setup([(5, 1.0)])

    def test_finished_apps_disconnected(self):
        engine, machine, apps, kernel, manager = _setup([(2, 1.0), (2, 1.0)], work=30_000.0)
        _run(engine, machine, apps, kernel, manager)
        # disconnection happens at the next quantum boundary after an app
        # finishes; run one more boundary past completion
        engine.run_until(engine.now + 2 * manager.config.quantum_us, advancer=machine)
        assert manager.arena.connected() == []

    def test_double_attach_rejected(self):
        engine, machine, apps, kernel, manager = _setup([(1, 1.0)])
        with pytest.raises(SchedulingError):
            manager.attach(machine, engine)


class TestGangBehaviour:
    def test_gang_integrity_while_running(self):
        engine, machine, apps, kernel, manager = _setup(
            [(2, 5.0), (2, 5.0), (2, 5.0), (2, 5.0)], work=300_000.0
        )
        kernel.start()
        manager.start()
        violations = []

        def check():
            running = set(machine.running_tids())
            for app in apps:
                live = {t.tid for t in app.threads if not t.finished}
                inter = running & live
                # mid-signal transients are allowed only briefly; check at
                # mid-quantum instants (10ms past each boundary)
                if inter and inter != live:
                    violations.append(machine.now)
            if not machine.all_finished():
                engine.schedule_after(20_000.0, check)

        engine.schedule_after(10_000.0, check)
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e10)
        assert violations == []

    def test_blocked_apps_make_no_progress_while_blocked(self):
        engine, machine, apps, kernel, manager = _setup(
            [(2, 5.0), (2, 5.0), (2, 5.0)], work=500_000.0
        )
        kernel.start()
        manager.start()
        engine.run_until(10_000.0, advancer=machine)
        blocked_apps = [a for a in apps if a.blocked()]
        assert blocked_apps, "expected at least one app blocked mid-quantum"
        before = {a.app_id: sum(t.work_done for t in a.threads) for a in blocked_apps}
        engine.run_until(15_000.0, advancer=machine)
        for a in blocked_apps:
            if a.blocked():
                assert sum(t.work_done for t in a.threads) == before[a.app_id]


class TestEstimation:
    def test_estimates_converge_to_true_rates(self):
        pol = QuantaWindowPolicy(window_length=5)
        engine, machine, apps, kernel, manager = _setup(
            [(2, 8.0), (2, 1.0)], policy=pol, work=400_000.0
        )
        _run(engine, machine, apps, kernel, manager)
        # both apps fit on 4 cpus simultaneously: rates measured near-solo
        est_a = pol.estimate(apps[0].app_id)
        # estimates are dropped at disconnect; run again with partial run
        # instead: re-check recorded estimate before completion
        # (estimate may be None after forget) — so assert via arena history:
        desc = manager.arena.descriptor(apps[0].app_id)
        assert len(desc.samples) >= 2
        rate = desc.rate_between(desc.samples[0], desc.samples[-1])
        assert rate == pytest.approx(8.0, rel=0.15)

    def test_sample_publications_only_while_running(self):
        engine, machine, apps, kernel, manager = _setup(
            [(2, 5.0), (2, 5.0), (2, 5.0)], work=400_000.0
        )
        kernel.start()
        manager.start()
        engine.run_until(60_000.0, advancer=machine)
        for desc in manager.arena.connected():
            # cumulative runtime in the arena never exceeds wall time x threads
            if desc.latest is not None:
                assert desc.latest.cum_runtime_us <= machine.now * desc.n_threads + 1e-6


class TestSignalsIntegration:
    def test_signals_sent_on_selection_changes(self):
        engine, machine, apps, kernel, manager = _setup(
            [(2, 5.0), (2, 5.0), (2, 5.0)], work=300_000.0
        )
        _run(engine, machine, apps, kernel, manager)
        assert manager.signals.signals_sent > 0

    def test_kernel_notified_of_unblocks(self):
        engine, machine, apps, kernel, manager = _setup(
            [(2, 5.0), (2, 5.0), (2, 5.0)], work=200_000.0
        )
        _run(engine, machine, apps, kernel, manager)
        # trace contains both block and unblock deliveries
        assert machine.trace.count("sched.block") > 0
        assert machine.trace.count("sched.unblock") > 0
