"""Manager edge cases: small machines, degenerate workloads, re-connection."""

import numpy as np
import pytest

from repro.config import LinuxSchedConfig, MachineConfig, ManagerConfig
from repro.core.manager import CpuManager
from repro.core.policies import LatestQuantumPolicy, QuantaWindowPolicy
from repro.errors import ArenaError
from repro.hw.machine import Machine
from repro.sched.linux import LinuxScheduler
from repro.sim.engine import Engine
from repro.sim.trace import TraceRecorder
from repro.workloads.base import Application, ApplicationSpec
from repro.workloads.patterns import ConstantPattern


def _stack(n_cpus=4, quantum=20_000.0, policy=None):
    engine = Engine()
    machine = Machine(MachineConfig(n_cpus=n_cpus), engine, TraceRecorder())
    kernel = LinuxScheduler(LinuxSchedConfig(rebalance_prob=0.0))
    kernel.attach(machine, engine, np.random.default_rng(1))
    manager = CpuManager(
        ManagerConfig(quantum_us=quantum), policy or LatestQuantumPolicy(), kernel
    )
    manager.attach(machine, engine)
    return engine, machine, kernel, manager


def _app(machine, name="a", threads=1, rate=2.0, work=50_000.0):
    spec = ApplicationSpec(
        name=name,
        n_threads=threads,
        work_per_thread_us=work,
        pattern=ConstantPattern(rate),
        footprint_lines=128.0,
    )
    return Application.launch(spec, machine, np.random.default_rng(len(name)))


class TestSingleCpuMachine:
    def test_gang_of_one_on_one_cpu(self):
        engine, machine, kernel, manager = _stack(n_cpus=1)
        apps = [_app(machine, f"a{i}") for i in range(3)]
        manager.register_apps(apps)
        kernel.start()
        manager.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e9)
        assert all(a.finished for a in apps)
        # exactly one app ran per quantum on the single CPU
        for rec in machine.trace.records("manager.quantum"):
            assert len(rec.data["selected"]) <= 1


class TestSingleApp:
    def test_single_app_never_blocked(self):
        engine, machine, kernel, manager = _stack()
        app = _app(machine, "only", threads=2)
        manager.register_apps([app])
        kernel.start()
        manager.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e9)
        assert app.finished
        assert machine.trace.count("sched.block") == 0


class TestReconnection:
    def test_double_register_rejected(self):
        engine, machine, kernel, manager = _stack()
        app = _app(machine, "x")
        manager.register_app(app)
        with pytest.raises(ArenaError):
            manager.register_app(app)

    def test_sample_period_told_to_apps(self):
        engine, machine, kernel, manager = _stack(quantum=50_000.0)
        assert manager.arena.sample_period_us == pytest.approx(25_000.0)


class TestQuantumEdge:
    def test_manager_quiesces_after_all_disconnect(self):
        engine, machine, kernel, manager = _stack(quantum=10_000.0)
        apps = [_app(machine, f"a{i}", work=15_000.0) for i in range(2)]
        manager.register_apps(apps)
        kernel.start()
        manager.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e9)
        # run past several further boundaries: the quantum chain must stop
        # re-arming once the arena empties
        engine.run_until(engine.now + 100_000.0, advancer=machine)
        quanta_after = manager.quanta
        engine.run_until(engine.now + 100_000.0, advancer=machine)
        assert manager.quanta == quanta_after

    def test_window_policy_head_rotation_visits_everyone(self):
        engine, machine, kernel, manager = _stack(
            quantum=10_000.0, policy=QuantaWindowPolicy()
        )
        apps = [_app(machine, f"a{i}", threads=2, work=120_000.0) for i in range(4)]
        manager.register_apps(apps)
        kernel.start()
        manager.start()
        engine.run_until(100_000.0, advancer=machine)
        selected_ever = set()
        for rec in machine.trace.records("manager.quantum"):
            selected_ever.update(rec.data["selected"])
        assert selected_ever == {a.app_id for a in apps}


class TestWiderMachine:
    def test_eight_cpu_machine_selects_more_jobs(self):
        engine, machine, kernel, manager = _stack(n_cpus=8)
        apps = [_app(machine, f"a{i}", threads=2, work=80_000.0) for i in range(5)]
        manager.register_apps(apps)
        kernel.start()
        manager.start()
        engine.run_until(10_000.0, advancer=machine)
        rec = machine.trace.records("manager.quantum")[0]
        widths = {a.app_id: a.n_threads for a in apps}
        assert sum(widths[i] for i in rec.data["selected"]) <= 8
        assert len(rec.data["selected"]) >= 4  # 4x2=8 fits
