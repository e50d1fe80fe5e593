"""Dynamic job arrival tests: the open-system mode of the CPU manager."""

import pytest

from repro.core.policies import LatestQuantumPolicy, QuantaWindowPolicy
from repro.errors import ConfigError
from repro.experiments.base import SimulationSpec, run_simulation, run_simulation_with_handle
from repro.workloads.base import ApplicationSpec
from repro.workloads.microbench import nbbma_spec
from repro.workloads.patterns import ConstantPattern
from repro.workloads.suites import paper_app


def _app(rate=3.0, work=60_000.0, threads=2, name="dyn"):
    return ApplicationSpec(
        name=name,
        n_threads=threads,
        work_per_thread_us=work,
        pattern=ConstantPattern(rate),
        footprint_lines=512.0,
    )


class TestArrivalsUnderLinux:
    def test_arriving_jobs_complete(self):
        spec = SimulationSpec(
            targets=[_app(name="first")],
            arrivals=[(20_000.0, _app(name="second")), (40_000.0, _app(name="third"))],
            scheduler="linux",
            seed=3,
        )
        result, handle = run_simulation_with_handle(spec)
        assert len(handle.target_apps) == 3
        assert all(a.finished for a in handle.target_apps)

    def test_arrival_after_static_targets_finish(self):
        # the run must not stop before the late job even arrives
        spec = SimulationSpec(
            targets=[_app(work=5_000.0, name="quick")],
            arrivals=[(50_000.0, _app(name="late"))],
            scheduler="linux",
            seed=3,
        )
        result, handle = run_simulation_with_handle(spec)
        late = handle.target_apps[-1]
        assert late.name == "late"
        assert late.finished
        assert result.makespan_us > 50_000.0

    def test_arrivals_counted_in_results(self):
        spec = SimulationSpec(
            targets=[_app(name="a")],
            arrivals=[(10_000.0, _app(name="b"))],
            scheduler="linux",
            seed=3,
        )
        result = run_simulation(spec)
        assert {a.name for a in result.apps} >= {"a", "b"}


class TestArrivalsUnderManager:
    def test_manager_connects_arrivals(self):
        spec = SimulationSpec(
            targets=[paper_app("CG").scaled(0.05)],
            background=[nbbma_spec()] * 2,
            arrivals=[(30_000.0, paper_app("Barnes").scaled(0.05))],
            scheduler=QuantaWindowPolicy(),
            seed=3,
        )
        result, handle = run_simulation_with_handle(spec)
        assert all(a.finished for a in handle.target_apps)
        # the arrival went through the connection protocol
        assert handle.machine.trace.count("workload.arrival") == 1

    def test_no_starvation_with_churn(self):
        arrivals = [
            (float(10_000 * (i + 1)), _app(rate=float(2 + 3 * (i % 3)), name=f"wave{i}"))
            for i in range(6)
        ]
        spec = SimulationSpec(
            targets=[_app(name="base")],
            background=[nbbma_spec()],
            arrivals=arrivals,
            scheduler=LatestQuantumPolicy(),
            seed=9,
        )
        result, handle = run_simulation_with_handle(spec)
        assert len(handle.target_apps) == 7
        assert all(a.finished for a in handle.target_apps)

    def test_arrival_estimates_learned(self):
        spec = SimulationSpec(
            targets=[_app(name="early", work=400_000.0)],
            arrivals=[(50_000.0, _app(rate=8.0, name="late", work=300_000.0))],
            scheduler=QuantaWindowPolicy(),
            seed=3,
        )
        result, handle = run_simulation_with_handle(spec)
        late = next(a for a in handle.target_apps if a.name == "late")
        desc = handle.manager.arena.descriptor(late.app_id)
        assert len(desc.samples) >= 2  # it published after connecting


class TestArrivalValidation:
    def test_static_schedulers_reject_arrivals(self):
        with pytest.raises(ConfigError):
            run_simulation(
                SimulationSpec(
                    targets=[_app()],
                    arrivals=[(1_000.0, _app())],
                    scheduler="dedicated",
                )
            )

    def test_negative_arrival_time_rejected(self):
        with pytest.raises(ConfigError):
            run_simulation(
                SimulationSpec(
                    targets=[_app()],
                    arrivals=[(-1.0, _app())],
                    scheduler="linux",
                )
            )

    def test_arrivals_only_workload_allowed(self):
        spec = SimulationSpec(
            targets=[],
            arrivals=[(1_000.0, _app())],
            scheduler="linux",
            seed=1,
        )
        result = run_simulation(spec)
        assert result.makespan_us > 1_000.0

    def test_deterministic(self):
        def run():
            return run_simulation(
                SimulationSpec(
                    targets=[_app(name="x")],
                    arrivals=[(25_000.0, _app(name="y"))],
                    scheduler=QuantaWindowPolicy(),
                    seed=17,
                )
            ).makespan_us

        assert run() == run()
