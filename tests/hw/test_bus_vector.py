"""Vectorized solver: bit-identity with newton, plus lane-array plumbing.

``solver_mode="vector"`` keeps the guarded-Newton control flow but runs
the per-lane kernels as numpy array expressions. Unlike the newton mode
(which only has to agree with bisection to solver tolerance), the vector
mode's contract is *bit-identity with newton*: every elementwise numpy op
rounds exactly like the scalar float op, and the reductions are strict
left-to-right ``cumsum`` folds — so equality below is ``==``, never
``approx``. The module also covers the ``batched_lanes`` counter, the
sub-:data:`_VECTOR_MIN_LANES` scalar fallback, the ``speeds_arr`` /
``actuals_arr`` plumbing used by the machine's settle path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BusConfig
from repro.hw.bus import _VECTOR_MIN_LANES, BusModel

_rates = st.floats(min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False)
_request_lists = st.lists(_rates, min_size=1, max_size=10)
_wide_request_lists = st.lists(_rates, min_size=_VECTOR_MIN_LANES, max_size=16)


def _pair(**kwargs) -> tuple[BusModel, BusModel]:
    newton = BusModel(BusConfig(solver_mode="newton", **kwargs))
    vector = BusModel(BusConfig(solver_mode="vector", **kwargs))
    return newton, vector


class TestSolverModeConfig:
    def test_vector_accepted(self):
        assert BusConfig(solver_mode="vector").solver_mode == "vector"

    def test_vector_counter_starts_at_zero(self):
        assert BusModel(BusConfig(solver_mode="vector")).batched_lanes == 0


@given(_request_lists)
@settings(max_examples=300, deadline=None)
def test_vector_solution_is_bit_identical_to_newton(rates):
    newton, vector = _pair()
    sol_n = newton.solve([newton.request_for_rate(r) for r in rates])
    sol_v = vector.solve([vector.request_for_rate(r) for r in rates])
    # Full structural equality — saturation flag, latency, utilisation,
    # totals and every grant — at the last ulp, not to tolerance.
    assert sol_v == sol_n
    assert sol_v.latency_us == sol_n.latency_us
    assert sol_v.total_txus == sol_n.total_txus
    for gn, gv in zip(sol_n.grants, sol_v.grants):
        assert gv.speed == gn.speed
        assert gv.actual_txus == gn.actual_txus


@given(st.lists(_request_lists, min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_vector_bit_identical_across_drifting_sequences(rate_lists):
    # The vector mode shares newton's warm-start slot; identity must hold
    # through a whole solve *sequence*, where each root seeds the next.
    newton, vector = _pair(solve_cache_size=0)
    for rates in rate_lists:
        sol_n = newton.solve([newton.request_for_rate(r) for r in rates])
        sol_v = vector.solve([vector.request_for_rate(r) for r in rates])
        assert sol_v == sol_n


@given(_request_lists)
@settings(max_examples=150, deadline=None)
def test_vector_equilibrium_matches_bisect_within_tolerance(rates):
    bisect = BusModel(BusConfig(solver_mode="bisect"))
    vector = BusModel(BusConfig(solver_mode="vector"))
    sol_b = bisect.solve([bisect.request_for_rate(r) for r in rates])
    sol_v = vector.solve([vector.request_for_rate(r) for r in rates])
    tol = bisect.config.fixed_point_tol * bisect.lam0
    assert sol_v.saturated == sol_b.saturated
    assert sol_v.latency_us == pytest.approx(sol_b.latency_us, abs=2 * tol, rel=1e-6)
    assert sol_v.total_txus == pytest.approx(sol_b.total_txus, rel=1e-6, abs=1e-9)


class TestBatchedLanesCounter:
    def test_wide_solve_counts_every_lane(self):
        vector = BusModel(BusConfig(solver_mode="vector", solve_cache_size=0))
        rates = [30.0 + i for i in range(6)]
        vector.solve([vector.request_for_rate(r) for r in rates])
        assert vector.batched_lanes == 6
        vector.solve([vector.request_for_rate(r + 0.5) for r in rates])
        assert vector.batched_lanes == 12

    def test_narrow_solve_falls_back_to_scalar(self):
        vector = BusModel(BusConfig(solver_mode="vector", solve_cache_size=0))
        rates = [30.0 + i for i in range(_VECTOR_MIN_LANES - 1)]
        vector.solve([vector.request_for_rate(r) for r in rates])
        assert vector.batched_lanes == 0

    def test_scalar_modes_never_batch(self):
        newton = BusModel(BusConfig(solver_mode="newton", solve_cache_size=0))
        rates = [30.0 + i for i in range(8)]
        newton.solve([newton.request_for_rate(r) for r in rates])
        assert newton.batched_lanes == 0

    @given(st.lists(_rates, min_size=1, max_size=_VECTOR_MIN_LANES - 1))
    @settings(max_examples=100, deadline=None)
    def test_narrow_fallback_is_bit_identical_too(self, rates):
        newton, vector = _pair(solve_cache_size=0)
        sol_n = newton.solve([newton.request_for_rate(r) for r in rates])
        sol_v = vector.solve([vector.request_for_rate(r) for r in rates])
        assert sol_v == sol_n
        assert vector.batched_lanes == 0


class TestLaneArrays:
    """``speeds_arr``/``actuals_arr``: the machine's batched-settle feed."""

    def test_wide_vector_solve_exposes_arrays_matching_grants(self):
        vector = BusModel(BusConfig(solver_mode="vector", solve_cache_size=0))
        rates = [28.0, 31.0, 34.0, 37.0, 40.0]
        sol = vector.solve([vector.request_for_rate(r) for r in rates])
        assert sol.speeds_arr is not None and sol.actuals_arr is not None
        # Same bits, request order — the machine folds these straight
        # into its lane arrays without touching the grant tuples.
        assert sol.speeds_arr.tolist() == [g.speed for g in sol.grants]
        assert sol.actuals_arr.tolist() == [g.actual_txus for g in sol.grants]

    def test_scalar_solve_has_no_arrays(self):
        newton = BusModel(BusConfig(solver_mode="newton", solve_cache_size=0))
        sol = newton.solve([newton.request_for_rate(r) for r in (30.0, 35.0, 40.0, 45.0)])
        assert sol.speeds_arr is None and sol.actuals_arr is None

    def test_reordered_memo_replay_drops_arrays(self):
        # A permuted replay reorders the grant tuple; the stored arrays
        # would still be in first-solve order, so they must not survive.
        vector = BusModel(BusConfig(solver_mode="vector"))
        rates = [28.0, 31.0, 34.0, 37.0]
        first = vector.solve([vector.request_for_rate(r) for r in rates])
        assert first.speeds_arr is not None
        replay = vector.solve(
            [vector.request_for_rate(r) for r in reversed(rates)]
        )
        assert vector.cache_hits >= 1
        assert replay.speeds_arr is None and replay.actuals_arr is None
        assert replay.grants == tuple(reversed(first.grants))

    def test_arrays_do_not_affect_solution_equality(self):
        vector = BusModel(BusConfig(solver_mode="vector", solve_cache_size=0))
        newton = BusModel(BusConfig(solver_mode="newton", solve_cache_size=0))
        rates = [28.0, 31.0, 34.0, 37.0]
        sol_v = vector.solve([vector.request_for_rate(r) for r in rates])
        sol_n = newton.solve([newton.request_for_rate(r) for r in rates])
        assert sol_v == sol_n  # despite one carrying arrays, one not

