"""Property-based tests (hypothesis) for the bus contention model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BusConfig
from repro.hw.bus import BusModel

_rates = st.floats(min_value=0.0, max_value=40.0, allow_nan=False, allow_infinity=False)
_request_lists = st.lists(_rates, min_size=1, max_size=8)


def _bus(arbitration="shared-latency") -> BusModel:
    return BusModel(BusConfig(arbitration=arbitration))


@given(_request_lists)
@settings(max_examples=200, deadline=None)
def test_conservation_total_never_exceeds_capacity(rates):
    bus = _bus()
    sol = bus.solve(rates)
    assert sol.total_txus <= bus.capacity * (1 + 1e-9)


@given(_request_lists)
@settings(max_examples=200, deadline=None)
def test_speeds_in_unit_interval(rates):
    bus = _bus()
    sol = bus.solve(rates)
    for grant in sol.grants:
        assert 0.0 < grant.speed <= 1.0 + 1e-9


@given(_request_lists)
@settings(max_examples=200, deadline=None)
def test_actual_rate_is_demand_times_speed(rates):
    bus = _bus()
    sol = bus.solve(rates)
    for rate, grant in zip(rates, sol.grants):
        assert grant.actual_txus == pytest.approx(rate * grant.speed, rel=1e-9, abs=1e-12)


@given(_request_lists, _rates)
@settings(max_examples=150, deadline=None)
def test_adding_a_thread_never_speeds_anyone_up(rates, extra):
    bus = _bus()
    before = bus.solve(rates)
    after = bus.solve(rates + [extra])
    for b, a in zip(before.grants, after.grants):
        assert a.speed <= b.speed * (1 + 1e-9)


@given(_request_lists)
@settings(max_examples=150, deadline=None)
def test_latency_at_least_unloaded(rates):
    bus = _bus()
    sol = bus.solve(rates)
    assert sol.latency_us >= bus.lam0 * (1 - 1e-12)


@given(_request_lists)
@settings(max_examples=150, deadline=None)
def test_saturation_flag_consistent(rates):
    bus = _bus()
    sol = bus.solve(rates)
    if sol.saturated:
        assert sol.total_txus == pytest.approx(bus.capacity, rel=1e-6)
    else:
        assert sol.total_txus <= bus.capacity * (1 + 1e-9)


@given(_request_lists)
@settings(max_examples=150, deadline=None)
def test_max_min_conservation_and_bounds(rates):
    bus = _bus("max-min")
    sol = bus.solve(rates)
    assert sol.total_txus <= bus.capacity * (1 + 1e-9)
    for rate, grant in zip(rates, sol.grants):
        assert 0.0 <= grant.speed <= 1.0 + 1e-9
        assert grant.actual_txus <= rate + 1e-9


@given(st.lists(_rates, min_size=1, max_size=10), st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_water_filling_properties(demands, capacity):
    alloc = BusModel._max_min_allocation(demands, capacity)
    assert len(alloc) == len(demands)
    # never over-allocate a demand, never exceed capacity
    for a, d in zip(alloc, demands):
        assert -1e-9 <= a <= d + 1e-9
    assert sum(alloc) <= capacity + 1e-6
    # if total demand exceeds capacity, capacity is fully used
    if sum(demands) > capacity:
        assert sum(alloc) == pytest.approx(capacity, rel=1e-6)
    # max-min fairness: any unsatisfied thread got at least as much as
    # every other thread's allocation (within tolerance)
    for i, (a, d) in enumerate(zip(alloc, demands)):
        if a < d - 1e-6:  # unsatisfied
            assert a >= max(alloc) - 1e-6
