"""Bit-identical reproducibility across runs with the same seed."""

import pytest

from repro.core.policies import LatestQuantumPolicy, QuantaWindowPolicy
from repro.experiments.base import SimulationSpec, run_simulation
from repro.workloads.microbench import bbma_spec, nbbma_spec
from repro.workloads.suites import paper_app


def _spec(scheduler, seed):
    return SimulationSpec(
        targets=[paper_app("Raytrace").scaled(0.05), paper_app("Raytrace").scaled(0.05)],
        background=[bbma_spec(), nbbma_spec()],
        scheduler=scheduler,
        seed=seed,
    )


class TestDeterminism:
    @pytest.mark.parametrize(
        "make_scheduler",
        [lambda: "linux", lambda: LatestQuantumPolicy(), lambda: QuantaWindowPolicy()],
        ids=["linux", "latest", "window"],
    )
    def test_same_seed_same_result(self, make_scheduler):
        a = run_simulation(_spec(make_scheduler(), seed=7))
        b = run_simulation(_spec(make_scheduler(), seed=7))
        assert a.mean_target_turnaround_us() == b.mean_target_turnaround_us()
        assert a.total_transactions == b.total_transactions
        assert a.context_switches == b.context_switches
        assert a.migrations == b.migrations

    def test_different_seed_differs(self):
        # bursty Raytrace + randomized kernel: different seeds must diverge
        a = run_simulation(_spec("linux", seed=1))
        b = run_simulation(_spec("linux", seed=2))
        assert a.mean_target_turnaround_us() != b.mean_target_turnaround_us()

    def test_seed_isolation_between_policy_runs(self):
        # running one simulation must not perturb the next (fresh registries)
        first = run_simulation(_spec(QuantaWindowPolicy(), seed=3))
        _ = run_simulation(_spec(QuantaWindowPolicy(), seed=99))
        again = run_simulation(_spec(QuantaWindowPolicy(), seed=3))
        assert first.mean_target_turnaround_us() == again.mean_target_turnaround_us()
