"""Simulation runner tests."""

import pytest

from repro.config import MachineConfig
from repro.core.policies import LatestQuantumPolicy
from repro.errors import ConfigError
from repro.experiments.base import (
    SimulationSpec,
    run_simulation,
    run_simulation_with_handle,
    solo_run,
)
from repro.workloads.base import ApplicationSpec
from repro.workloads.microbench import bbma_spec, nbbma_spec
from repro.workloads.patterns import ConstantPattern


def _app(rate=2.0, work=40_000.0):
    return ApplicationSpec(
        name="t",
        n_threads=2,
        work_per_thread_us=work,
        pattern=ConstantPattern(rate),
        footprint_lines=256.0,
    )


class TestSchedulerSelection:
    @pytest.mark.parametrize("sched", ["dedicated", "linux"])
    def test_string_schedulers(self, sched):
        result = run_simulation(SimulationSpec(targets=[_app()], scheduler=sched, seed=1))
        assert result.mean_target_turnaround_us() > 0

    def test_policy_scheduler(self):
        result = run_simulation(
            SimulationSpec(targets=[_app()], background=[nbbma_spec()], scheduler=LatestQuantumPolicy(), seed=1)
        )
        assert result.mean_target_turnaround_us() > 0

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigError):
            run_simulation(SimulationSpec(targets=[_app()], scheduler="cfs"))

    def test_no_targets_rejected(self):
        with pytest.raises(ConfigError):
            run_simulation(SimulationSpec(targets=[]))


class TestStopSemantics:
    def test_stops_when_targets_finish_background_running(self):
        result, handle = run_simulation_with_handle(
            SimulationSpec(targets=[_app()], background=[bbma_spec()], scheduler="dedicated", seed=1)
        )
        bg = [a for a in handle.apps if a.name == "BBMA"][0]
        assert not bg.finished
        assert all(a.finished for a in handle.target_apps)

    def test_max_time_guard(self):
        with pytest.raises(Exception):
            run_simulation(
                SimulationSpec(targets=[_app(work=1e9)], scheduler="dedicated", max_time_us=10_000.0)
            )


class TestHandle:
    def test_handle_exposes_state(self):
        result, handle = run_simulation_with_handle(
            SimulationSpec(targets=[_app()], scheduler="linux", seed=2, timeline_period_us=5_000.0)
        )
        assert handle.machine.all_finished() or any(not a.finished for a in handle.apps)
        assert handle.timeline is not None
        assert len(handle.timeline.points) > 1
        assert handle.manager is None

    def test_manager_created_for_policy(self):
        result, handle = run_simulation_with_handle(
            SimulationSpec(
                targets=[_app()], background=[nbbma_spec()], scheduler=LatestQuantumPolicy(), seed=2
            )
        )
        assert handle.manager is not None
        assert handle.manager.quanta >= 1


class TestSoloRun:
    def test_solo_run_is_dedicated(self):
        result = solo_run(_app(rate=1.0))
        # solo with 2 light threads: turnaround ~= work
        assert result.mean_target_turnaround_us() == pytest.approx(40_000.0, rel=0.05)

    def test_custom_machine(self):
        result = solo_run(_app(), machine=MachineConfig(n_cpus=2))
        assert result.mean_target_turnaround_us() > 0
