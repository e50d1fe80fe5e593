"""Machine hot paths and the batched bus finder: full-run bit-identity gates.

The machine runs the struct-of-arrays (SoA) pipeline on large machines and
the scalar lane loops on small ones; wide bus solves run guarded Newton
as numpy kernels, and the SoA settle folds their lane arrays directly.
Both are evaluation-order-preserving optimizations: an entire simulation — every
turnaround, every counter that carries physics — must be byte-equal
whichever machine path runs, under either bus finder, with SMT, with the
audit on, with faults injected, and through the chunked-parallel
dispatcher. These are the end-to-end gates behind
``benchmarks/bench_perf.py``'s ``vectorized`` section.
"""

from dataclasses import replace

import pytest

from repro.config import BusConfig, MachineConfig, ManagerConfig
from repro.core.policies import LatestQuantumPolicy, QuantaWindowPolicy
from repro.experiments.base import SimulationSpec, run_simulation
from repro.experiments.fig2 import (
    WORKLOAD_SETS,
    _background,
    default_policies,
    replace_scheduler,
)
from repro.faults import FaultPlan
from repro.parallel import run_many
from repro.workloads.microbench import bbma_spec, nbbma_spec
from repro.workloads.suites import PAPER_APPS
from tests.conftest import PATH_CASES, bus_finder, machine_path

_SCALE = 0.05


def _machine(n_cpus: int = 8, smt_ways: int = 1) -> MachineConfig:
    return MachineConfig(
        n_cpus=n_cpus,
        smt_ways=smt_ways,
        bus=BusConfig(capacity_txus=BusConfig().capacity_txus * (n_cpus / 4.0)),
    )


def _spec(scheduler, smt_ways: int = 1, **kwargs) -> SimulationSpec:
    apps = [PAPER_APPS[name].scaled(_SCALE) for name in ("CG", "Barnes")]
    return SimulationSpec(
        targets=[apps[0], apps[0], apps[1]],
        background=[bbma_spec(), bbma_spec(), nbbma_spec()],
        scheduler=scheduler,
        machine=_machine(smt_ways=smt_ways),
        seed=11,
        **kwargs,
    )


def _run(spec: SimulationSpec, soa: bool):
    with machine_path(soa):
        return run_simulation(spec)


def _run_batched(spec: SimulationSpec, soa: bool):
    """Run with every bus solve on the batched Newton finder."""
    with bus_finder(batched=True):
        return _run(spec, soa)


def _fig2_specs(set_name: str) -> list[SimulationSpec]:
    """Every Figure 2 cell of one workload set, on the default machine."""
    specs = []
    for name in PAPER_APPS:
        app = PAPER_APPS[name].scaled(_SCALE)
        base = SimulationSpec(
            targets=[app, app], background=_background(set_name), scheduler="linux", seed=42
        )
        specs.append(base)
        specs += [replace_scheduler(base, p) for p in default_policies(ManagerConfig())]
    return specs


class TestVectorRunIdentity:
    """The batched finder's lane arrays feed the SoA settle: same bits."""

    def test_linux_run_bit_identical_to_newton(self):
        ref = _run_batched(_spec("linux"), soa=False)
        vec = _run_batched(_spec("linux"), soa=True)
        assert vec == ref  # compare=False excludes observability counters
        assert vec.apps == ref.apps

    def test_policy_run_bit_identical_to_newton(self):
        for policy_cls in (LatestQuantumPolicy, QuantaWindowPolicy):
            ref = _run_batched(_spec(policy_cls()), soa=False)
            vec = _run_batched(_spec(policy_cls()), soa=True)
            assert vec == ref

    def test_vector_identity_survives_audit(self):
        # The audit replays selections through the differential oracle;
        # it must neither fire nor perturb the batched run.
        audited = _run_batched(_spec(QuantaWindowPolicy(), audit=True), soa=True)
        plain = _run_batched(_spec(QuantaWindowPolicy()), soa=True)
        ref = _run_batched(_spec(QuantaWindowPolicy()), soa=False)
        assert audited.audit is not None and audited.audit.violations == ()
        assert audited == plain == ref

    def test_vector_survives_chunked_parallel_dispatch(self):
        grid = [_spec("linux", profile=True), _spec(QuantaWindowPolicy(), profile=True)]
        with machine_path(soa=True), bus_finder(batched=True):
            serial = run_many(grid, jobs=1)
            parallel = run_many(grid, jobs=2)
        assert serial == parallel
        # The forked workers ran the SoA path and the batched finder too.
        assert all(r.profile["dirty_mask_hits"] > 0 for r in parallel)
        assert all(r.profile["batched_lanes"] > 0 for r in parallel)

    def test_profile_counters_prove_vector_path_ran(self):
        result = _run_batched(_spec(QuantaWindowPolicy(), profile=True), soa=True)
        prof = result.profile
        assert prof is not None
        assert prof["batched_lanes"] > 0
        assert prof["dirty_mask_hits"] > 0
        assert prof["selection_calls"] >= 1
        # Left to the selectors, 8 CPUs take the scalar loops and bisection.
        small = run_simulation(_spec(QuantaWindowPolicy(), profile=True))
        assert small.profile["batched_lanes"] == 0
        assert small.profile["dirty_mask_hits"] == 0


class TestMachinePathIdentity:
    """Forced-scalar and forced-SoA runs of the same spec are equal."""

    @pytest.mark.parametrize("smt_ways", PATH_CASES)
    def test_full_run_bit_identical_across_paths(self, smt_ways):
        for scheduler in ("linux", QuantaWindowPolicy()):
            scalar = _run(_spec(scheduler, smt_ways=smt_ways), soa=False)
            soa = _run(_spec(scheduler, smt_ways=smt_ways), soa=True)
            assert soa == scalar
            assert soa.apps == scalar.apps

    @pytest.mark.parametrize("set_name", sorted(WORKLOAD_SETS))
    def test_fig2_grid_bisect_through_soa(self, set_name):
        # Bisection (the paper's 4-CPU machine never batches), every
        # application and scheduler of one Figure 2 workload set.
        scalar = [_run(s, soa=False) for s in _fig2_specs(set_name)]
        soa = [_run(s, soa=True) for s in _fig2_specs(set_name)]
        assert soa == scalar

    def test_faulted_bisect_run_through_soa(self):
        # A crash (threads leave mid-quantum) and a hang (stalled threads
        # keep their CPUs) both land in this seed's run.
        plan = FaultPlan(
            pmc_jitter=0.2, signal_drop_prob=0.2, crash_prob=0.5,
            hang_prob=0.5, stall_prob=0.8,
        )

        def spec():
            return replace(_spec(QuantaWindowPolicy(), faults=plan), seed=3)

        scalar = _run(spec(), soa=False)
        soa = _run(spec(), soa=True)
        assert scalar.faults.apps_crashed > 0 and scalar.faults.apps_hung > 0
        assert soa == scalar
