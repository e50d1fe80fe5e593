"""Self-tests for the invariant auditor.

Two families: a *clean* managed run in strict mode must evaluate every
check family at least once with zero violations, and each check must
demonstrably fire when a synthetic violation is injected (non-strict mode
records instead of raising, so we can inspect the report).
"""

import pickle

import numpy as np
import pytest

from repro.audit import AuditReport, InvariantAuditor, reference_selection
from repro.config import LinuxSchedConfig, MachineConfig, ManagerConfig
from repro.core.manager import CpuManager
from repro.core.policies import JobView, LatestQuantumPolicy, Selection
from repro.errors import AuditViolation
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


def _setup(n_apps=3, quantum=20_000.0, work=500_000.0, strict=False, capacity=None):
    """A managed 4-CPU system with the auditor threaded through."""
    engine = Engine()
    machine = Machine(MachineConfig(n_cpus=4), engine, TraceRecorder())
    apps = [
        Application.launch(_spec(i, work=work), machine, np.random.default_rng(i))
        for i in range(n_apps)
    ]
    kernel = LinuxScheduler(LinuxSchedConfig(rebalance_prob=0.0))
    kernel.attach(machine, engine, np.random.default_rng(50))
    policy = LatestQuantumPolicy()
    cap = policy.bus_capacity_txus if capacity is None else capacity
    auditor = InvariantAuditor(machine, engine, bus_capacity_txus=cap, strict=strict)
    manager = CpuManager(ManagerConfig(quantum_us=quantum), policy, kernel, auditor=auditor)
    manager.attach(machine, engine)
    manager.register_apps(apps)
    return engine, machine, apps, kernel, manager, auditor


def _run_to(engine, machine, kernel, manager, t):
    kernel.start()
    manager.start()
    engine.run_until(t, advancer=machine)


def _jobs(manager):
    machine = manager.machine
    return [
        JobView(
            app_id=d.app_id,
            width=sum(1 for t in d.tids if not machine.thread(t).finished),
        )
        for d in manager.arena.connected()
    ]


def _violated(report, check):
    return any(f"'{check}'" in v for v in report.violations)


class TestCleanRun:
    """A healthy managed run passes every check family, repeatedly."""

    def test_every_check_fires_and_passes(self):
        engine, machine, apps, kernel, manager, auditor = _setup(
            n_apps=3, work=60_000.0, strict=True
        )
        kernel.start()
        manager.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e10)
        # Let the boundary chain reap the finished applications.
        engine.run_until(engine.now + 2 * manager.config.quantum_us, advancer=machine)
        report = auditor.finalize()
        assert report.ok
        for check in (
            "engine-accounting",
            "bus-capacity",
            "cpu-allocation",
            "allocation-intent",
            "signal-counters",
            "signal-departed",
            "selection-structure",
            "selection-oracle",
            "starvation-age",
            "accounting-totals",
        ):
            assert report.count(check) > 0, f"{check} never evaluated"
        assert report.total_checks == sum(n for _, n in report.checks)


class TestInjectedViolations:
    """Each check fires when the corresponding invariant is broken."""

    def test_bus_capacity(self):
        # An absurdly small configured capacity: any traffic violates it.
        engine, machine, apps, kernel, manager, auditor = _setup(capacity=1e-6)
        _run_to(engine, machine, kernel, manager, 30_000.0)
        report = auditor.report()
        assert _violated(report, "bus-capacity")

    def test_engine_accounting_clock_regression(self):
        engine, machine, apps, kernel, manager, auditor = _setup()
        _run_to(engine, machine, kernel, manager, 10_000.0)
        auditor._last_clock = engine.now + 1.0  # pretend the clock went back
        auditor.check_engine()
        assert _violated(auditor.report(), "engine-accounting")

    def test_engine_accounting_ledger_mismatch(self):
        engine, machine, apps, kernel, manager, auditor = _setup()
        _run_to(engine, machine, kernel, manager, 10_000.0)
        engine._events_fired += 1  # corrupt the ledger
        auditor.check_engine()
        engine._events_fired -= 1
        assert _violated(auditor.report(), "engine-accounting")

    def test_cpu_allocation_blocked_thread_on_cpu(self):
        engine, machine, apps, kernel, manager, auditor = _setup()
        _run_to(engine, machine, kernel, manager, 10_000.0)
        tid = machine.running_tids()[0]
        # Flip the flag directly, bypassing set_blocked's CPU removal: the
        # machine now claims a blocked thread is executing.
        machine.thread(tid).blocked = True
        auditor.on_sample(manager)
        machine.thread(tid).blocked = False
        assert _violated(auditor.report(), "cpu-allocation")

    def test_allocation_intent_and_signal_counters(self):
        engine, machine, apps, kernel, manager, auditor = _setup()
        _run_to(engine, machine, kernel, manager, 10_000.0)
        # Block a selected, running thread through the proper machine API
        # (it leaves its CPU) but *without* any signal: the realised state
        # now disagrees with the manager's intent, and the thread's blocked
        # flag disagrees with its signal counters.
        tid = machine.running_tids()[0]
        machine.set_blocked(tid, True)
        auditor.on_sample(manager)
        machine.set_blocked(tid, False)
        report = auditor.report()
        assert _violated(report, "allocation-intent")
        assert _violated(report, "signal-counters")

    def test_signal_departed(self):
        engine, machine, apps, kernel, manager, auditor = _setup()
        _run_to(engine, machine, kernel, manager, 10_000.0)
        victim = apps[0]
        # Positive control: a delivery to a connected thread is fine.
        auditor.on_deliver(manager, victim.tids[0])
        assert auditor.report().ok
        manager.disconnect_app(victim.app_id)
        auditor.on_deliver(manager, victim.tids[0])
        assert _violated(auditor.report(), "signal-departed")

    def test_selection_structure_head_violation(self):
        engine, machine, apps, kernel, manager, auditor = _setup()
        _run_to(engine, machine, kernel, manager, 10_000.0)
        jobs = _jobs(manager)
        bogus = Selection(app_ids=(jobs[1].app_id,), abbw_trace=())
        auditor.on_quantum(manager, jobs, bogus)
        assert _violated(auditor.report(), "selection-structure")

    def test_selection_structure_duplicate_violation(self):
        engine, machine, apps, kernel, manager, auditor = _setup()
        _run_to(engine, machine, kernel, manager, 10_000.0)
        jobs = _jobs(manager)
        head = jobs[0].app_id
        bogus = Selection(app_ids=(head, head), abbw_trace=())
        auditor.on_quantum(manager, jobs, bogus)
        assert _violated(auditor.report(), "selection-structure")

    def test_selection_oracle(self):
        engine, machine, apps, kernel, manager, auditor = _setup()
        _run_to(engine, machine, kernel, manager, 10_000.0)
        jobs = _jobs(manager)
        policy = manager.policy
        expected = reference_selection(
            jobs,
            machine.n_cpus,
            policy.bus_capacity_txus,
            policy.effective_estimate,
            policy.fitness,
        )
        # Structurally valid (head first, fits: two width-2 jobs on 4 CPUs)
        # but deliberately different from the greedy replay.
        others = [j.app_id for j in jobs[1:]]
        wrong = next(
            ids
            for a in others
            if (ids := (jobs[0].app_id, a)) != expected
        )
        auditor.on_quantum(manager, jobs, Selection(app_ids=wrong, abbw_trace=()))
        report = auditor.report()
        assert _violated(report, "selection-oracle")
        assert not _violated(report, "selection-structure")

    def test_starvation_age(self):
        engine, machine, apps, kernel, manager, auditor = _setup()
        _run_to(engine, machine, kernel, manager, 10_000.0)
        # Skip the oracle (it would rightly object to this selection) and
        # keep electing only the head: with 3 co-resident applications the
        # others may legally wait 3 quanta; the 4th is a starvation breach.
        manager.policy.oracle_replayable = False
        auditor._wait.clear()  # discard ages accrued during the warmup run
        jobs = _jobs(manager)
        head_only = Selection(app_ids=(jobs[0].app_id,), abbw_trace=())
        for _ in range(3):
            auditor.on_quantum(manager, jobs, head_only)
        assert not _violated(auditor.report(), "starvation-age")
        auditor.on_quantum(manager, jobs, head_only)
        assert _violated(auditor.report(), "starvation-age")

    def test_accounting_totals(self):
        engine, machine, apps, kernel, manager, auditor = _setup(work=30_000.0)
        kernel.start()
        manager.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e10)
        thread = machine.threads()[0]
        thread.work_done = thread.work_total * 2.0  # impossible progress
        report = auditor.finalize()
        assert _violated(report, "accounting-totals")


class TestStrictMode:
    def test_first_violation_raises(self):
        engine, machine, apps, kernel, manager, auditor = _setup(
            strict=True, capacity=1e-6
        )
        with pytest.raises(AuditViolation) as exc:
            _run_to(engine, machine, kernel, manager, 30_000.0)
        assert exc.value.check == "bus-capacity"
        # The raising violation is also recorded in the report.
        assert _violated(auditor.report(), "bus-capacity")

    def test_non_strict_caps_recorded_violations(self):
        engine, machine, apps, kernel, manager, auditor = _setup()
        _run_to(engine, machine, kernel, manager, 10_000.0)
        for _ in range(300):
            auditor._violation("bus-capacity", synthetic=True)
        assert len(auditor.report().violations) == 100


class TestPeriodicAudit:
    """Manager-less runs get a self-rescheduling observer tick."""

    def test_kernel_only_run_audited(self):
        engine = Engine()
        machine = Machine(MachineConfig(n_cpus=4), engine, TraceRecorder())
        Application.launch(_spec(0, work=50_000.0), machine, np.random.default_rng(0))
        kernel = LinuxScheduler(LinuxSchedConfig(rebalance_prob=0.0))
        kernel.attach(machine, engine, np.random.default_rng(1))
        auditor = InvariantAuditor(machine, engine, bus_capacity_txus=29.5)
        auditor.start_periodic(10_000.0)
        kernel.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e10)
        report = auditor.report()
        assert report.ok
        assert report.count("engine-accounting") > 0
        assert report.count("bus-capacity") > 0

    def test_bad_period_rejected(self):
        engine = Engine()
        machine = Machine(MachineConfig(n_cpus=4), engine, TraceRecorder())
        auditor = InvariantAuditor(machine, engine, bus_capacity_txus=29.5)
        with pytest.raises(ValueError):
            auditor.start_periodic(0.0)


class TestReportAndError:
    def test_report_properties(self):
        clean = AuditReport(checks=(("a", 2), ("b", 3)), violations=())
        assert clean.ok
        assert clean.total_checks == 5
        assert clean.count("a") == 2
        assert clean.count("missing") == 0
        dirty = AuditReport(checks=(("a", 1),), violations=("audit check 'a' failed",))
        assert not dirty.ok

    def test_violation_pickles(self):
        err = AuditViolation("bus-capacity", 123.5, {"total_txus": 31.0})
        clone = pickle.loads(pickle.dumps(err))
        assert clone.check == err.check
        assert clone.time_us == err.time_us
        assert clone.details == err.details
        assert str(clone) == str(err)

    def test_report_pickles(self):
        report = AuditReport(checks=(("a", 1),), violations=("v",))
        assert pickle.loads(pickle.dumps(report)) == report


class TestFaultInjectionAudit:
    """Audit behaviour under each fault injector (the robustness contract).

    With hardening *off*, each injector produces its expected violation
    class in non-strict mode; with hardening *on*, the degradation
    machinery keeps strict-mode runs clean (fault-adjusted checks).
    """

    def _fault_setup(
        self,
        plan,
        hardening,
        strict=False,
        n_apps=4,
        quantum=20_000.0,
        work=1e9,
        watchdog_quanta=2,
    ):
        from repro.faults import FaultInjector
        from repro.rng import RngRegistry

        engine = Engine()
        machine = Machine(MachineConfig(n_cpus=4), engine, TraceRecorder())
        apps = [
            Application.launch(_spec(i, work=work), machine, np.random.default_rng(i))
            for i in range(n_apps)
        ]
        kernel = LinuxScheduler(LinuxSchedConfig(rebalance_prob=0.0))
        kernel.attach(machine, engine, np.random.default_rng(50))
        policy = LatestQuantumPolicy()
        auditor = InvariantAuditor(
            machine, engine, bus_capacity_txus=policy.bus_capacity_txus, strict=strict
        )
        injector = FaultInjector(plan, RngRegistry(17))
        manager = CpuManager(
            ManagerConfig(
                quantum_us=quantum,
                hardening=hardening,
                watchdog_quanta=watchdog_quanta,
            ),
            policy,
            kernel,
            auditor=auditor,
            faults=injector,
        )
        manager.attach(machine, engine)
        manager.register_apps(apps)
        injector.schedule_app_faults(engine, machine, apps)
        kernel.start()
        manager.start()
        return engine, machine, apps, manager, auditor, injector

    def test_signal_loss_unhardened_violates_intent_or_counters(self):
        from repro.faults import FaultPlan

        engine, machine, apps, manager, auditor, injector = self._fault_setup(
            FaultPlan(signal_drop_prob=0.5), hardening=False
        )
        engine.run_until(600_000.0, advancer=machine)
        report = auditor.report()
        assert manager.signals.dropped > 0
        assert _violated(report, "allocation-intent") or _violated(
            report, "signal-counters"
        )

    def test_hang_unhardened_violates_progress_liveness(self):
        from repro.faults import FaultPlan

        engine, machine, apps, manager, auditor, injector = self._fault_setup(
            FaultPlan(hang_prob=1.0, hang_mean_time_us=5_000.0), hardening=False
        )
        engine.run_until(800_000.0, advancer=machine)
        report = auditor.report()
        assert injector.apps_hung == len(apps)
        assert injector.apps_quarantined == 0
        assert _violated(report, "progress-liveness")

    def test_hang_hardened_quarantine_keeps_strict_run_clean(self):
        from repro.faults import FaultPlan

        engine, machine, apps, manager, auditor, injector = self._fault_setup(
            FaultPlan(hang_prob=1.0, hang_mean_time_us=5_000.0),
            hardening=True,
            strict=True,
        )
        engine.run_until(800_000.0, advancer=machine)
        assert injector.apps_quarantined == len(apps)
        assert auditor.report().ok
        assert auditor.report().count("progress-liveness") > 0

    def test_crash_strict_clean_and_slot_released_immediately(self):
        from repro.faults import FaultPlan

        engine, machine, apps, manager, auditor, injector = self._fault_setup(
            FaultPlan(crash_prob=1.0, crash_mean_time_us=30_000.0),
            hardening=True,
            strict=True,
        )
        engine.run_until(600_000.0, advancer=machine)
        assert injector.apps_crashed == len(apps)
        # Immediate mid-quantum release: no crashed app lingers connected.
        assert manager.arena.connected() == []
        assert auditor.report().ok

    def test_pmc_noise_hardened_strict_clean(self):
        from repro.faults import FaultPlan

        engine, machine, apps, manager, auditor, injector = self._fault_setup(
            FaultPlan(
                pmc_jitter=0.3, pmc_drop_prob=0.1, pmc_wrap_prob=0.05, pmc_stale_prob=0.1
            ),
            hardening=True,
            strict=True,
        )
        engine.run_until(600_000.0, advancer=machine)
        assert injector.pmc_jittered + injector.pmc_dropped + injector.pmc_stale > 0
        report = auditor.report()
        assert report.ok
        assert report.count("selection-structure") > 0

    def test_signal_loss_hardened_relaxes_intent_and_retries(self):
        from repro.faults import FaultPlan

        engine, machine, apps, manager, auditor, injector = self._fault_setup(
            FaultPlan(signal_drop_prob=0.5), hardening=True
        )
        engine.run_until(600_000.0, advancer=machine)
        report = auditor.report()
        assert manager.signals.dropped > 0
        assert injector.signal_retries > 0
        # Relaxed while the verifier handles transients: the intent and
        # counter checks are suspended outright, never violated.
        assert report.count("allocation-intent") == 0
        assert report.count("signal-counters") == 0
        assert not report.violations

    def test_oracle_skipped_on_fallback_boundaries(self):
        from repro.faults import FaultPlan

        # All reads stale after the first: every late boundary degrades to
        # head-first, which the oracle replay must not second-guess.
        engine, machine, apps, manager, auditor, injector = self._fault_setup(
            FaultPlan(pmc_stale_prob=1.0), hardening=True, strict=True
        )
        engine.run_until(600_000.0, advancer=machine)
        assert injector.headfirst_fallbacks > 0
        report = auditor.report()
        assert report.ok
        assert report.count("selection-oracle") < report.count("selection-structure")
