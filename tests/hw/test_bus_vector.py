"""Batched Newton finder: bit-identity with scalar Newton, and the selector.

Wide bus solves run guarded Newton with every per-lane evaluation as a
numpy array expression. Its contract is *bit-identity* with the same
search driven by the scalar loop ``BusModel._throughput_grad_hoisted``:
every elementwise numpy op rounds exactly like the scalar float op, and
the reductions are strict left-to-right ``cumsum`` folds — so equality
below is ``==``, never ``approx``. The module also covers the lane-count
selector (bisection below :data:`_BATCH_MIN_LANES`), the
``batched_lanes`` counter and the ``speeds`` / ``actuals`` columns the
machine's settle path reads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BusConfig
import repro.hw.bus as bus_module
from repro.hw.bus import _BATCH_MIN_LANES, BusModel, BusSolution, ThreadGrant
from tests.conftest import bus_finder

_rates = st.floats(min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False)
_request_lists = st.lists(_rates, min_size=1, max_size=24)
_wide_request_lists = st.lists(_rates, min_size=_BATCH_MIN_LANES, max_size=24)


def _solve(bus: BusModel, rates) -> BusSolution:
    return bus.solve(list(rates))


def _scalar_newton_solve(bus: BusModel, rates) -> BusSolution:
    """The batched solve, step for step, on the scalar lane loops: the oracle."""
    requests = [bus.request_for_rate(r) for r in rates]
    cap = bus.capacity
    offered = 0.0
    for req in requests:
        offered += req.rate_txus
    lam_c = bus.contention_latency(offered / cap)
    params = bus._speed_params(requests)
    if bus._throughput_hoisted(params, lam_c) <= cap:
        return bus._solution_at_hoisted(params, lam_c, saturated=False)
    lam, _ = bus._saturation_root_newton(
        lambda x: bus._throughput_grad_hoisted(params, x), lam_c, cap
    )
    bus._last_lam = lam  # the warm start the batched solve keeps too
    return bus._solution_at_hoisted(params, lam, saturated=True)


def _batched(rates, bus: BusModel) -> BusSolution:
    with bus_finder(batched=True):
        return _solve(bus, rates)


class TestSolverModeConfig:
    def test_vector_accepted(self):
        assert BusConfig(solver_mode="vector").solver_mode == "vector"

    def test_vector_counter_starts_at_zero(self):
        assert BusModel(BusConfig()).batched_lanes == 0


@given(_request_lists)
@settings(max_examples=300, deadline=None)
def test_vector_solution_is_bit_identical_to_newton(rates):
    oracle = BusModel(BusConfig())
    sol_n = _scalar_newton_solve(oracle, rates)
    sol_v = _batched(rates, BusModel(BusConfig()))
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
    # The warm-start slot carries each root into the next search;
    # identity must hold through a whole solve *sequence*.
    oracle = BusModel(BusConfig(solve_cache_size=0))
    vector = BusModel(BusConfig(solve_cache_size=0))
    for rates in rate_lists:
        assert _batched(rates, vector) == _scalar_newton_solve(oracle, rates)


@given(_wide_request_lists)
@settings(max_examples=150, deadline=None)
def test_vector_equilibrium_matches_bisect_within_tolerance(rates):
    bisect = BusModel(BusConfig())
    vector = BusModel(BusConfig())
    with bus_finder(batched=False):
        sol_b = _solve(bisect, rates)
    sol_v = _solve(vector, rates)  # wide enough for the selector to batch
    assert vector.batched_lanes == len(rates)
    tol = bisect.config.fixed_point_tol * bisect.lam0
    assert sol_v.saturated == sol_b.saturated
    assert sol_v.latency_us == pytest.approx(sol_b.latency_us, abs=2 * tol, rel=1e-6)
    assert sol_v.total_txus == pytest.approx(sol_b.total_txus, rel=1e-6, abs=1e-9)


class TestBatchedLanesCounter:
    def _saturating(self, n: int) -> list[float]:
        return [12.0 + 0.5 * i for i in range(n)]

    def test_wide_solve_counts_every_lane(self):
        vector = BusModel(BusConfig(solve_cache_size=0))
        rates = self._saturating(_BATCH_MIN_LANES)
        assert _solve(vector, rates).saturated
        assert vector.batched_lanes == _BATCH_MIN_LANES
        _solve(vector, [r + 0.5 for r in rates])
        assert vector.batched_lanes == 2 * _BATCH_MIN_LANES
        assert vector.warm_starts == 1

    def test_narrow_solve_falls_back_to_scalar(self):
        # Below the threshold the selector bisects: no lane is batched and
        # no search is warm-started, however saturated the bus.
        for n in (4, _BATCH_MIN_LANES - 1):
            bisect = BusModel(BusConfig(solve_cache_size=0))
            for shift in range(3):
                sol = _solve(bisect, [r + 0.1 * shift for r in self._saturating(n)])
                assert sol.saturated
            assert bisect.bisection_steps > 0
            assert bisect.batched_lanes == 0
            assert bisect.warm_starts == 0

    def test_solver_mode_never_changes_the_finder(self):
        for mode in ("bisect", "newton", "vector"):
            bus = BusModel(BusConfig(solver_mode=mode, solve_cache_size=0))
            _solve(bus, self._saturating(8))
            assert bus.batched_lanes == 0
            _solve(bus, self._saturating(_BATCH_MIN_LANES))
            assert bus.batched_lanes == _BATCH_MIN_LANES

    @given(st.lists(_rates, min_size=1, max_size=_BATCH_MIN_LANES - 1))
    @settings(max_examples=100, deadline=None)
    def test_narrow_fallback_is_bit_identical_too(self, rates):
        selected = BusModel(BusConfig(solve_cache_size=0))
        bisect = BusModel(BusConfig(solve_cache_size=0))
        with bus_finder(batched=False):
            forced = _solve(bisect, rates)
        assert _solve(selected, rates) == forced
        assert selected.batched_lanes == 0


class TestLaneArrays:
    """``speeds``/``actuals``: the columns every finder returns."""

    _WIDE = [28.0 + 0.75 * i for i in range(_BATCH_MIN_LANES)]

    def test_wide_vector_solve_exposes_arrays_matching_grants(self):
        vector = BusModel(BusConfig(solve_cache_size=0))
        sol = _solve(vector, self._WIDE)
        assert vector.batched_lanes == len(self._WIDE)
        # Same bits, request order — the machine folds these straight
        # into its lane arrays; the grants are a view built on access.
        assert sol.speeds.dtype == np.float64 and len(sol.speeds) == len(self._WIDE)
        assert sol.speeds.tolist() == [g.speed for g in sol.grants]
        assert sol.actuals.tolist() == [g.actual_txus for g in sol.grants]

    def test_scalar_solve_has_columns_too(self):
        bisect = BusModel(BusConfig(solve_cache_size=0))
        sol = _solve(bisect, (30.0, 35.0, 40.0, 45.0))
        assert bisect.batched_lanes == 0
        assert sol.speeds.dtype == np.float64 and len(sol.actuals) == 4
        assert sol.speeds.tolist() == [g.speed for g in sol.grants]

    def test_columns_are_read_only(self):
        # A memo hit hands the same columns to every caller.
        for rates in (self._WIDE, self._WIDE[:4]):
            sol = _solve(BusModel(BusConfig()), rates)
            with pytest.raises(ValueError):
                sol.speeds[0] = 0.0
            with pytest.raises(ValueError):
                sol.actuals[0] = 0.0

    def test_batched_miss_builds_no_grant(self, monkeypatch):
        def no_grants(*args, **kwargs):
            raise AssertionError("a solve built a ThreadGrant")

        monkeypatch.setattr(bus_module, "ThreadGrant", no_grants)
        vector = BusModel(BusConfig())
        sol = _solve(vector, self._WIDE)
        assert vector.batched_lanes == len(self._WIDE) and vector.cache_hits == 0
        _solve(vector, list(reversed(self._WIDE)))  # permuted hit
        assert vector.cache_hits == 1
        with pytest.raises(AssertionError):
            sol.grants  # noqa: B018 - only an access builds them

    def test_permuted_hit_returns_grants_in_caller_order(self):
        vector = BusModel(BusConfig())
        first = _solve(vector, self._WIDE)
        order = list(range(len(self._WIDE)))[::-1]
        order[0], order[5] = order[5], order[0]
        replay = _solve(vector, [self._WIDE[i] for i in order])
        assert vector.cache_hits == 1
        assert vector.batched_lanes == len(self._WIDE)  # no second search
        assert replay.grants == tuple(first.grants[i] for i in order)
        assert replay.speeds.tolist() == [first.speeds[i] for i in order]
        assert replay.actuals.tolist() == [first.actuals[i] for i in order]
        assert replay.latency_us == first.latency_us
        assert replay.total_txus == first.total_txus
        # The same permutation again reuses the entry's index map.
        again = _solve(vector, [self._WIDE[i] for i in order])
        assert again == replay

    def test_columns_decide_solution_equality(self):
        sol_v = _solve(BusModel(BusConfig(solve_cache_size=0)), self._WIDE)
        sol_n = _scalar_newton_solve(BusModel(BusConfig(solve_cache_size=0)), self._WIDE)
        assert sol_v == sol_n
        other = BusSolution(
            sol_v.speeds, sol_v.actuals[::-1].copy(), sol_v.utilisation,
            sol_v.latency_us, sol_v.total_txus, sol_v.saturated,
        )
        assert other != sol_v
        assert ThreadGrant(1.0, 0.0) == ThreadGrant(1.0, 0.0)
