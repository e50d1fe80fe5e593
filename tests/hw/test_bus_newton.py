"""Warm-started Newton solver: tolerance-equivalence with bisection.

The `solver_mode="newton"` fast path must produce equilibria that agree
with the default bisection solver to within the configured fixed-point
tolerance, on arbitrary workloads — the ISSUE 2 acceptance property.
Alongside the property tests, this module covers the warm-start counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BusConfig
from repro.errors import ConfigError
from repro.hw.bus import BusModel

_rates = st.floats(min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False)
_request_lists = st.lists(_rates, min_size=1, max_size=10)


def _pair(arbitration="shared-latency") -> tuple[BusModel, BusModel]:
    bisect = BusModel(BusConfig(arbitration=arbitration, solver_mode="bisect"))
    newton = BusModel(BusConfig(arbitration=arbitration, solver_mode="newton"))
    return bisect, newton


class TestSolverModeConfig:
    def test_default_is_bisect(self):
        assert BusConfig().solver_mode == "bisect"

    def test_newton_accepted(self):
        assert BusConfig(solver_mode="newton").solver_mode == "newton"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            BusConfig(solver_mode="brent")


@given(_request_lists)
@settings(max_examples=300, deadline=None)
def test_newton_equilibrium_matches_bisect_within_tolerance(rates):
    bisect, newton = _pair()
    reqs_b = [bisect.request_for_rate(r) for r in rates]
    reqs_n = [newton.request_for_rate(r) for r in rates]
    sol_b = bisect.solve(reqs_b)
    sol_n = newton.solve(reqs_n)
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
    bisect, newton = _pair()
    for rates in rate_lists:
        sol_b = bisect.solve([bisect.request_for_rate(r) for r in rates])
        sol_n = newton.solve([newton.request_for_rate(r) for r in rates])
        tol = bisect.config.fixed_point_tol * bisect.lam0
        assert sol_n.latency_us == pytest.approx(sol_b.latency_us, abs=2 * tol, rel=1e-6)


@given(_request_lists)
@settings(max_examples=150, deadline=None)
def test_newton_conservation_and_speed_bounds(rates):
    _, newton = _pair()
    sol = newton.solve([newton.request_for_rate(r) for r in rates])
    assert sol.total_txus <= newton.capacity * (1 + 1e-9)
    for grant in sol.grants:
        assert 0.0 < grant.speed <= 1.0 + 1e-9


class TestWarmStart:
    def _saturating_rates(self, n=6, base=30.0):
        return [base + i for i in range(n)]

    def test_warm_start_engages_on_drift(self):
        newton = BusModel(BusConfig(solver_mode="newton", solve_cache_size=0))
        for shift in range(12):
            rates = [r + 0.01 * shift for r in self._saturating_rates()]
            newton.solve([newton.request_for_rate(r) for r in rates])
        # Every saturated solve after the first can seed from the last root.
        assert newton.warm_starts >= 10

    def test_newton_uses_fewer_evaluations_than_bisect(self):
        cfg_b = BusConfig(solver_mode="bisect", solve_cache_size=0)
        cfg_n = BusConfig(solver_mode="newton", solve_cache_size=0)
        bisect, newton = BusModel(cfg_b), BusModel(cfg_n)
        for shift in range(25):
            rates = [r + 0.02 * shift for r in self._saturating_rates()]
            bisect.solve([bisect.request_for_rate(r) for r in rates])
            newton.solve([newton.request_for_rate(r) for r in rates])
        assert bisect.bisection_steps > 0
        # ISSUE 2 acceptance: >= 25% fewer root-finder evaluations.
        assert newton.bisection_steps <= 0.75 * bisect.bisection_steps

    def test_bisect_mode_never_warm_starts(self):
        bisect = BusModel(BusConfig(solver_mode="bisect", solve_cache_size=0))
        for shift in range(5):
            rates = [r + 0.1 * shift for r in self._saturating_rates()]
            bisect.solve([bisect.request_for_rate(r) for r in rates])
        assert bisect.warm_starts == 0

