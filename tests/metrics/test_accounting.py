"""Run-result collection tests."""

import pytest

from repro.experiments.base import SimulationSpec, run_simulation
from repro.metrics.accounting import AppResult, RunResult
from repro.workloads.base import ApplicationSpec
from repro.workloads.microbench import bbma_spec
from repro.workloads.patterns import ConstantPattern


def _app(name="target", rate=2.0, work=50_000.0, threads=2):
    return ApplicationSpec(
        name=name,
        n_threads=threads,
        work_per_thread_us=work,
        pattern=ConstantPattern(rate),
        footprint_lines=256.0,
    )


class TestCollectRunResult:
    def test_targets_and_background_separated(self):
        result = run_simulation(
            SimulationSpec(
                targets=[_app()],
                background=[bbma_spec()],
                scheduler="dedicated",
                trace=False,
            )
        )
        targets = result.targets()
        assert len(targets) == 1
        assert targets[0].name == "target"
        assert len(result.apps) == 2

    def test_turnarounds_recorded(self):
        result = run_simulation(
            SimulationSpec(targets=[_app()], scheduler="dedicated", trace=False)
        )
        assert result.mean_target_turnaround_us() > 0
        assert result.makespan_us == pytest.approx(result.mean_target_turnaround_us())

    def test_workload_rate(self):
        result = run_simulation(
            SimulationSpec(targets=[_app(rate=3.0)], scheduler="dedicated", trace=False)
        )
        # 2 threads x 3 tx/us, plus cold-start refills
        assert result.workload_rate_txus == pytest.approx(6.0, rel=0.1)

    def test_transactions_sum_over_apps(self):
        result = run_simulation(
            SimulationSpec(targets=[_app()], background=[bbma_spec()], scheduler="dedicated", trace=False)
        )
        assert result.total_transactions == pytest.approx(
            sum(a.transactions for a in result.apps)
        )

    def test_unfinished_targets_raise_on_mean(self):
        r = RunResult(
            makespan_us=10.0,
            apps=(AppResult("t", 1, None, 0.0, 0.0, 0.0, 0, 0),),
            target_names=("t",),
            total_transactions=0.0,
            context_switches=0,
            migrations=0,
            cpu_idle_us=0.0,
        )
        with pytest.raises(ValueError):
            r.mean_target_turnaround_us()
