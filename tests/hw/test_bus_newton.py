"""Bus root finders: Newton against bisection, and the inert solver option.

:class:`~repro.hw.bus.BusModel` bisects narrow request sets and runs
guarded Newton, batched over numpy lanes, on sets of at least
``_BATCH_MIN_LANES`` requests. Both finders must reach the same
equilibrium within the configured fixed-point tolerance on arbitrary
workloads, and Newton must get there in fewer throughput evaluations.
``BusConfig.solver_mode`` is still validated but selects nothing: every
accepted value gives the same run. ``test_bus_vector.py`` pins the
batched kernel bit for bit to the scalar Newton oracle and covers the
lane-count selector.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BusConfig, MachineConfig
from repro.core.policies import QuantaWindowPolicy
from repro.errors import ConfigError
from repro.experiments.base import SimulationSpec, run_simulation
from repro.experiments.fig2 import _background
from repro.hw.bus import BusModel
from repro.workloads.microbench import bbma_spec, nbbma_spec
from repro.workloads.suites import PAPER_APPS
from tests.conftest import bus_finder

_MODES = ("bisect", "newton", "vector")
_rates = st.floats(min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False)
#: Up to 20 lanes, so the default selector is tried on both sides of 16.
_request_lists = st.lists(_rates, min_size=1, max_size=20)


def _solve(bus: BusModel, rates, batched: bool | None = None):
    """Solve ``rates`` with the lane-count selector or a forced finder."""
    rates = list(rates)
    if batched is None:
        return bus.solve(rates)
    with bus_finder(batched):
        return bus.solve(rates)


class TestSolverModeConfig:
    def test_default_is_bisect(self):
        # The wire default stays, so stored specs keep their hashes.
        assert BusConfig().solver_mode == "bisect"

    def test_newton_accepted(self):
        assert BusConfig(solver_mode="newton").solver_mode == "newton"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            BusConfig(solver_mode="brent")

    def _assert_inert(self, spec: SimulationSpec) -> list:
        bus = spec.machine.bus
        results = [
            run_simulation(
                replace(spec, machine=replace(spec.machine, bus=replace(bus, solver_mode=m)))
            )
            for m in _MODES
        ]
        assert results[1] == results[0]
        assert results[2] == results[0]
        return results

    def test_every_mode_gives_equal_fig2_cell(self):
        app = PAPER_APPS["CG"].scaled(0.05)
        self._assert_inert(SimulationSpec(
            targets=[app, app], background=_background("A"),
            scheduler=QuantaWindowPolicy(), seed=42,
        ))

    def test_every_mode_gives_equal_large_run(self):
        apps = [PAPER_APPS[n].scaled(0.05) for n in ("Barnes", "SP", "CG", "Raytrace")]
        results = self._assert_inert(SimulationSpec(
            targets=apps * 4,
            background=[bbma_spec() for _ in range(12)] + [nbbma_spec() for _ in range(4)],
            scheduler=QuantaWindowPolicy(),
            machine=MachineConfig(
                n_cpus=32, bus=BusConfig(capacity_txus=BusConfig().capacity_txus * 8)
            ),
            seed=42, profile=True,
        ))
        # 32 CPUs run enough lanes for the batched finder.
        assert all(r.profile["batched_lanes"] > 0 for r in results)


@given(_request_lists)
@settings(max_examples=300, deadline=None)
def test_newton_equilibrium_matches_bisect_within_tolerance(rates):
    bisect, newton = BusModel(BusConfig()), BusModel(BusConfig())
    sol_b = _solve(bisect, rates, batched=False)
    sol_n = _solve(newton, rates, batched=True)
    tol = bisect.config.fixed_point_tol * bisect.lam0
    assert sol_n.saturated == sol_b.saturated
    assert sol_n.latency_us == pytest.approx(sol_b.latency_us, abs=2 * tol, rel=1e-6)
    assert sol_n.total_txus == pytest.approx(sol_b.total_txus, rel=1e-6, abs=1e-9)
    for gb, gn in zip(sol_b.grants, sol_n.grants):
        assert gn.speed == pytest.approx(gb.speed, rel=1e-6, abs=1e-9)


@given(st.lists(_request_lists, min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_newton_agrees_across_drifting_sequences(rate_lists):
    # Warm starts carry state between solves; agreement must survive a
    # whole *sequence* of solves, not just a single cold call.
    bisect, newton = BusModel(BusConfig()), BusModel(BusConfig())
    tol = bisect.config.fixed_point_tol * bisect.lam0
    for rates in rate_lists:
        sol_b = _solve(bisect, rates, batched=False)
        sol_n = _solve(newton, rates, batched=True)
        assert sol_n.latency_us == pytest.approx(sol_b.latency_us, abs=2 * tol, rel=1e-6)


@given(_request_lists)
@settings(max_examples=150, deadline=None)
def test_newton_conservation_and_speed_bounds(rates):
    newton = BusModel(BusConfig())
    sol = _solve(newton, rates, batched=True)
    assert sol.total_txus <= newton.capacity * (1 + 1e-9)
    for grant in sol.grants:
        assert 0.0 < grant.speed <= 1.0 + 1e-9


class TestWarmStart:
    def _saturating_rates(self, n=16):
        return [12.0 + 0.5 * i for i in range(n)]

    def test_warm_start_engages_on_drift(self):
        newton = BusModel(BusConfig(solve_cache_size=0))
        for shift in range(12):
            sol = _solve(newton, [r + 0.01 * shift for r in self._saturating_rates()])
            assert sol.saturated
        # Every saturated solve after the first can seed from the last root.
        assert newton.warm_starts >= 10

    def test_newton_uses_fewer_evaluations_than_bisect(self):
        cfg = BusConfig(solve_cache_size=0)
        bisect, newton = BusModel(cfg), BusModel(cfg)
        for shift in range(25):
            rates = [r + 0.02 * shift for r in self._saturating_rates()]
            _solve(bisect, rates, batched=False)
            _solve(newton, rates)
        assert newton.batched_lanes > 0
        assert bisect.bisection_steps > 0
        # At least 25% fewer root-finder evaluations.
        assert newton.bisection_steps <= 0.75 * bisect.bisection_steps

    def test_bisect_mode_never_warm_starts(self):
        bisect = BusModel(BusConfig(solve_cache_size=0))
        for shift in range(5):
            _solve(bisect, [r + 0.1 * shift for r in self._saturating_rates(n=6)])
        assert bisect.bisection_steps > 0
        assert bisect.warm_starts == 0
