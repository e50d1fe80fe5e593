"""Unit tests for the bus contention model (calibration anchors + regimes)."""

import pytest

from repro.config import BusConfig
from repro.errors import WorkloadError
from repro.hw.bus import BusModel, BusRequest, derive_mem_fraction


@pytest.fixture
def bus() -> BusModel:
    return BusModel(BusConfig())


class TestDeriveMemFraction:
    def test_streaming_thread_fully_memory_bound(self):
        assert derive_mem_fraction(23.6, 1 / 23.6) == 1.0

    def test_above_ceiling_capped(self):
        assert derive_mem_fraction(100.0, 1 / 23.6) == 1.0

    def test_zero_rate_zero_fraction(self):
        assert derive_mem_fraction(0.0, 1 / 23.6) == 0.0

    def test_monotone_in_rate(self):
        fractions = [derive_mem_fraction(r, 1 / 23.6) for r in (1.0, 5.0, 10.0, 20.0)]
        assert fractions == sorted(fractions)

    def test_exponent_one_is_linear(self):
        assert derive_mem_fraction(11.8, 1 / 23.6, 1.0) == pytest.approx(0.5)

    def test_negative_rate_rejected(self):
        with pytest.raises(WorkloadError):
            derive_mem_fraction(-1.0, 1 / 23.6)


class TestBusRequest:
    def test_negative_rate_rejected(self):
        with pytest.raises(WorkloadError):
            BusRequest(-1.0, 0.5)

    def test_bad_fraction_rejected(self):
        with pytest.raises(WorkloadError):
            BusRequest(1.0, 1.5)

    def test_zero_rate_with_stalls_rejected(self):
        with pytest.raises(WorkloadError):
            BusRequest(0.0, 0.5)

    def test_derived_anchor_requests(self, bus):
        # solve(rates) derives each fraction: a BBMA-rate lane is the
        # fully memory-bound request and an idle lane stalls on nothing.
        assert bus.request_for_rate(23.6) == BusRequest(23.6, 1.0)
        assert bus.request_for_rate(0.0) == BusRequest(0.0, 0.0)


class TestEmptyAndSolo:
    def test_empty_solution(self, bus):
        sol = bus.solve([])
        assert sol.total_txus == 0.0
        assert sol.utilisation == 0.0
        assert sol.grants == ()

    def test_single_low_demand_runs_full_speed(self, bus):
        sol = bus.solve([0.5])
        assert sol.grants[0].speed == pytest.approx(1.0, abs=0.01)
        assert sol.grants[0].actual_txus == pytest.approx(0.5, rel=0.01)

    def test_zero_demand_thread(self, bus):
        sol = bus.solve([0.0])
        assert sol.grants[0].speed == 1.0
        assert sol.grants[0].actual_txus == 0.0

    def test_solo_bbma_reaches_paper_rate(self, bus):
        # Within ~4%: the solo run already carries a little arbitration
        # latency (rho = 0.8 for one streaming thread).
        sol = bus.solve([23.6])
        assert sol.grants[0].actual_txus == pytest.approx(23.6, rel=0.04)


class TestPaperAnchors:
    """The Section 3 calibration points the model was built to hit."""

    def test_stream_sustains_capacity(self, bus):
        sol = bus.solve([23.6] * 4)
        assert sol.saturated
        assert sol.total_txus == pytest.approx(bus.capacity, rel=1e-6)

    def test_two_cg_instances_hit_bandwidth_ceiling(self, bus):
        # 4 threads at 11.655 tx/us: ceiling slowdown = 46.62/29.5 = 1.58
        sol = bus.solve([11.655] * 4)
        assert sol.saturated
        assert sol.grants[0].speed == pytest.approx(29.5 / 46.62, rel=0.01)

    def test_cg_with_bbma_slows_two_to_three_fold(self, bus):
        sol = bus.solve([11.655] * 2 + [23.6] * 2)
        cg_speed = sol.grants[0].speed
        assert 1 / 3 < cg_speed < 1 / 1.8  # 1.8x..3x slowdown band

    def test_low_demand_with_bbma_mild_slowdown(self, bus):
        sol = bus.solve([0.24] * 2 + [23.6] * 2)
        assert sol.grants[0].speed > 0.9  # Radiosity: few percent

    def test_saturated_throughput_equals_capacity(self, bus):
        for n in (2, 3, 5, 8):
            sol = bus.solve([23.6] * n)
            assert sol.total_txus == pytest.approx(bus.capacity, rel=1e-6)


class TestRegimes:
    def test_unsaturated_below_capacity(self, bus):
        sol = bus.solve([2.0] * 4)
        assert not sol.saturated
        assert sol.total_txus < bus.capacity
        assert sol.utilisation == pytest.approx(sol.total_txus / bus.capacity)

    def test_speeds_bounded(self, bus):
        for rates in ([1.0], [10.0, 20.0], [23.6] * 6):
            sol = bus.solve(rates)
            for g in sol.grants:
                assert 0.0 < g.speed <= 1.0 + 1e-9

    def test_latency_increases_with_load(self, bus):
        lams = []
        for n in (1, 2, 4, 6):
            sol = bus.solve([23.6] * n)
            lams.append(sol.latency_us)
        assert lams == sorted(lams)
        assert lams[0] >= bus.lam0

    def test_heavier_thread_slows_more(self, bus):
        sol = bus.solve([2.0, 20.0, 23.6, 23.6])
        assert sol.grants[0].speed > sol.grants[1].speed

    def test_actual_never_exceeds_demand(self, bus):
        rates = [0.5, 5.0, 15.0, 23.6]
        sol = bus.solve(rates)
        for rate, grant in zip(rates, sol.grants):
            assert grant.actual_txus <= rate + 1e-9

    def test_request_order_preserved(self, bus):
        sol = bus.solve([1.0, 20.0])
        assert sol.grants[0].actual_txus < sol.grants[1].actual_txus

    def test_solve_calls_counted(self, bus):
        before = bus.solve_calls
        bus.solve([1.0])
        assert bus.solve_calls == before + 1


class TestContentionLatency:
    def test_zero_load_latency_is_lam0(self, bus):
        assert bus.contention_latency(0.0) == bus.lam0

    def test_monotone(self, bus):
        values = [bus.contention_latency(r) for r in (0.0, 0.5, 1.0, 2.0)]
        assert values == sorted(values)

    def test_negative_rho_rejected(self, bus):
        with pytest.raises(ValueError):
            bus.contention_latency(-0.1)


class TestMaxMinArbitration:
    @pytest.fixture
    def mm_bus(self) -> BusModel:
        return BusModel(BusConfig(arbitration="max-min"))

    def test_allocation_water_filling(self):
        assert BusModel._max_min_allocation([1.0, 2.0, 10.0], 6.0) == [1.0, 2.0, 3.0]

    def test_allocation_all_satisfiable(self):
        assert BusModel._max_min_allocation([1.0, 2.0], 10.0) == [1.0, 2.0]

    def test_allocation_equal_split_when_all_greedy(self):
        alloc = BusModel._max_min_allocation([10.0, 10.0, 10.0], 9.0)
        assert alloc == pytest.approx([3.0, 3.0, 3.0])

    def test_unsaturated_full_speed(self, mm_bus):
        sol = mm_bus.solve([2.0] * 4)
        for g in sol.grants:
            assert g.speed == pytest.approx(1.0)

    def test_saturated_protects_small_demands(self, mm_bus):
        sol = mm_bus.solve([1.0] + [23.6] * 3)
        # max-min fully satisfies the 1 tx/us thread
        assert sol.grants[0].speed == pytest.approx(1.0, rel=0.01)

    def test_saturated_equal_shares_for_streams(self, mm_bus):
        sol = mm_bus.solve([23.6] * 4)
        shares = [g.actual_txus for g in sol.grants]
        assert max(shares) - min(shares) < 1e-9
        assert sum(shares) == pytest.approx(mm_bus.capacity, rel=1e-6)
