"""Machine hot paths and the vector solver: full-run bit-identity gates.

The machine runs the struct-of-arrays (SoA) pipeline on large machines and
the scalar lane loops on small ones; the ``solver_mode="vector"`` bus
batches the newton root finder into numpy kernels; the incremental
selection pass replaces a full re-rank. All are evaluation-order-
preserving optimizations: an entire simulation — every turnaround, every
counter that carries physics — must be byte-equal whichever path runs,
under every solver mode, with SMT, with the audit on, with faults
injected, and through the chunked-parallel dispatcher. These are the
end-to-end gates behind ``benchmarks/bench_perf.py``'s ``vectorized``
section.
"""

from dataclasses import replace

import pytest

from repro.config import BusConfig, MachineConfig, ManagerConfig
from repro.core.policies import LatestQuantumPolicy, QuantaWindowPolicy
from repro.experiments.base import SimulationSpec, run_simulation
from repro.experiments.fig2 import (
    WORKLOAD_SETS,
    _background,
    _fresh_policy,
    default_policies,
    replace_scheduler,
)
from repro.faults import FaultPlan
from repro.parallel import run_many
from repro.workloads.microbench import bbma_spec, nbbma_spec
from repro.workloads.suites import PAPER_APPS
from tests.conftest import PATH_CASES, machine_path

_SCALE = 0.05


def _machine(mode: str, n_cpus: int = 8, smt_ways: int = 1) -> MachineConfig:
    return MachineConfig(
        n_cpus=n_cpus,
        smt_ways=smt_ways,
        bus=BusConfig(
            solver_mode=mode,
            capacity_txus=BusConfig().capacity_txus * (n_cpus / 4.0),
        ),
    )


def _spec(mode: str, scheduler, smt_ways: int = 1, **kwargs) -> SimulationSpec:
    apps = [PAPER_APPS[name].scaled(_SCALE) for name in ("CG", "Barnes")]
    return SimulationSpec(
        targets=[apps[0], apps[0], apps[1]],
        background=[bbma_spec(), bbma_spec(), nbbma_spec()],
        scheduler=scheduler,
        machine=_machine(mode, smt_ways=smt_ways),
        seed=11,
        **kwargs,
    )


def _run(spec: SimulationSpec, soa: bool):
    with machine_path(soa):
        return run_simulation(spec)


def _fig2_specs(set_name: str) -> list[SimulationSpec]:
    """Every Figure 2 cell of one workload set, on the default machine."""
    specs = []
    for name in PAPER_APPS:
        app = PAPER_APPS[name].scaled(_SCALE)
        base = SimulationSpec(
            targets=[app, app], background=_background(set_name), scheduler="linux", seed=42
        )
        specs.append(base)
        specs += [
            replace_scheduler(base, _fresh_policy(p)) for p in default_policies(ManagerConfig())
        ]
    return specs


class TestVectorRunIdentity:
    def test_linux_run_bit_identical_to_newton(self):
        ref = _run(_spec("newton", "linux"), soa=False)
        vec = _run(_spec("vector", "linux"), soa=True)
        assert vec == ref  # compare=False excludes observability counters
        assert vec.apps == ref.apps

    def test_policy_run_bit_identical_to_newton(self):
        for policy_cls in (LatestQuantumPolicy, QuantaWindowPolicy):
            ref = _run(_spec("newton", policy_cls()), soa=False)
            vec = _run(_spec("vector", policy_cls()), soa=True)
            assert vec == ref

    def test_incremental_selection_matches_full_rerank(self):
        # Same solver on both sides: this isolates the selection rewrite.
        full = run_simulation(_spec("vector", QuantaWindowPolicy(incremental=False)))
        inc = run_simulation(_spec("vector", QuantaWindowPolicy(incremental=True)))
        assert inc == full

    def test_vector_identity_survives_audit(self):
        # The audit replays selections through the differential oracle;
        # it must neither fire nor perturb the vectorized run.
        audited = _run(_spec("vector", QuantaWindowPolicy(), audit=True), soa=True)
        plain = _run(_spec("vector", QuantaWindowPolicy()), soa=True)
        ref = _run(_spec("newton", QuantaWindowPolicy()), soa=False)
        assert audited.audit is not None and audited.audit.violations == ()
        assert audited == plain == ref

    def test_vector_survives_chunked_parallel_dispatch(self):
        def grid():
            # Fresh policy instances per call: policies are stateful.
            return [
                _spec("vector", "linux", profile=True),
                _spec("vector", QuantaWindowPolicy(), profile=True),
            ]

        with machine_path(soa=True):
            serial = run_many(grid(), jobs=1)
            parallel = run_many(grid(), jobs=2)
        assert serial == parallel
        # The forked workers ran the SoA path too.
        assert all(r.profile["dirty_mask_hits"] > 0 for r in parallel)

    def test_profile_counters_prove_vector_path_ran(self):
        result = _run(_spec("vector", QuantaWindowPolicy(), profile=True), soa=True)
        prof = result.profile
        assert prof is not None
        assert prof["batched_lanes"] > 0
        assert prof["dirty_mask_hits"] > 0
        assert prof["selection_calls"] >= 1
        newton = _run(_spec("newton", QuantaWindowPolicy(), profile=True), soa=False)
        assert newton.profile["batched_lanes"] == 0
        assert newton.profile["dirty_mask_hits"] == 0


class TestMachinePathIdentity:
    """Forced-scalar and forced-SoA runs of the same spec are equal."""

    @pytest.mark.parametrize("mode,smt_ways", PATH_CASES)
    def test_full_run_bit_identical_across_paths(self, mode, smt_ways):
        for make_scheduler in (lambda: "linux", QuantaWindowPolicy):
            scalar = _run(_spec(mode, make_scheduler(), smt_ways=smt_ways), soa=False)
            soa = _run(_spec(mode, make_scheduler(), smt_ways=smt_ways), soa=True)
            assert soa == scalar
            assert soa.apps == scalar.apps

    @pytest.mark.parametrize("set_name", sorted(WORKLOAD_SETS))
    def test_fig2_grid_bisect_through_soa(self, set_name):
        # The default (bisect) solver on the paper's 4-CPU machine, every
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
            return replace(_spec("bisect", QuantaWindowPolicy(), faults=plan), seed=3)

        scalar = _run(spec(), soa=False)
        soa = _run(spec(), soa=True)
        assert scalar.faults.apps_crashed > 0 and scalar.faults.apps_hung > 0
        assert soa == scalar
