"""Unit tests for the bus-solve memo cache (hit/miss accounting, eviction,
permutation hits, exact rate keys, and cached-vs-uncached identity)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BusConfig
from repro.hw.bus import BusModel


@pytest.fixture
def bus() -> BusModel:
    return BusModel(BusConfig())


class TestAccounting:
    def test_first_solve_is_a_miss(self, bus):
        bus.solve([3.0, 7.0])
        assert bus.solve_calls == 1
        assert bus.cache_hits == 0
        assert bus.cache_len == 1

    def test_repeat_solve_is_a_hit(self, bus):
        rates = [3.0, 7.0]
        first = bus.solve(rates)
        second = bus.solve(rates)
        assert bus.solve_calls == 2
        assert bus.cache_hits == 1
        assert bus.cache_len == 1
        assert second == first

    def test_distinct_request_sets_all_miss(self, bus):
        for rates in ([1.0], [2.0], [1.0, 2.0]):
            bus.solve(rates)
        assert bus.solve_calls == 3
        assert bus.cache_hits == 0
        assert bus.cache_len == 3

    def test_empty_solve_not_cached(self, bus):
        bus.solve([])
        bus.solve([])
        assert bus.solve_calls == 2
        assert bus.cache_hits == 0
        assert bus.cache_len == 0

    def test_cache_hit_skips_bisection(self, bus):
        rates = [10.0, 15.0, 20.0]
        bus.solve(rates)
        steps_after_miss = bus.bisection_steps
        assert steps_after_miss > 0
        bus.solve(rates)
        assert bus.bisection_steps == steps_after_miss


class TestExactKeys:
    def test_rates_one_ulp_apart_do_not_share_an_entry(self, bus):
        rate = 7.25
        bus.solve([rate])
        bus.solve([math.nextafter(rate, math.inf)])
        assert bus.cache_hits == 0
        assert bus.cache_len == 2

    def test_equal_rates_hit_through_distinct_lists(self, bus):
        bus.solve([4.0, 9.0])
        bus.solve([2.0 * 2.0, 3.0 * 3.0])  # equal floats, new list objects
        assert bus.cache_hits == 1


class TestPermutation:
    def test_permuted_requests_hit_and_grants_follow_caller_order(self, bus):
        rates = [2.0, 9.0, 17.0]
        forward = bus.solve(rates)
        backward = bus.solve(rates[::-1])
        assert bus.cache_hits == 1
        assert backward.total_txus == forward.total_txus
        assert backward.latency_us == forward.latency_us
        assert list(backward.grants) == list(forward.grants)[::-1]

    def test_same_order_hit_returns_equal_solution(self, bus):
        rates = [2.0, 9.0, 17.0]
        assert bus.solve(rates) == bus.solve(rates)


class TestEviction:
    def test_eviction_at_capacity(self):
        bus = BusModel(BusConfig(solve_cache_size=2))
        bus.solve([1.0])
        bus.solve([2.0])
        bus.solve([3.0])  # evicts [1.0] (LRU)
        assert bus.cache_len == 2
        bus.solve([1.0])  # miss: was evicted
        assert bus.cache_hits == 0
        bus.solve([3.0])  # still resident? no — [1.0] evicted [2.0]
        assert bus.cache_hits == 1

    def test_hit_refreshes_lru_position(self):
        bus = BusModel(BusConfig(solve_cache_size=2))
        bus.solve([1.0])
        bus.solve([2.0])
        bus.solve([1.0])  # hit: [1.0] becomes most-recent
        bus.solve([3.0])  # evicts [2.0], not [1.0]
        bus.solve([1.0])
        assert bus.cache_hits == 2

    def test_cache_disabled(self):
        bus = BusModel(BusConfig(solve_cache_size=0))
        rates = [3.0, 7.0]
        first = bus.solve(rates)
        second = bus.solve(rates)
        assert bus.cache_hits == 0
        assert bus.cache_len == 0
        assert second == first


# The cache keys on the exact rate floats, so a cached
# replay must be bitwise equal to an uncached solve of the same multiset,
# whatever the rates' bits.
_rate = st.floats(min_value=0.001, max_value=40.0)


class TestCachedEqualsUncached:
    @settings(max_examples=60, deadline=None)
    @given(rates=st.lists(_rate, min_size=1, max_size=6))
    def test_cached_solution_bitwise_equals_uncached(self, rates):
        cached = BusModel(BusConfig())
        uncached = BusModel(BusConfig(solve_cache_size=0))
        for _ in range(2):  # second round replays from the cache
            a = cached.solve(rates)
            b = uncached.solve(rates)
            assert a.latency_us == b.latency_us
            assert a.total_txus == b.total_txus
            assert a.utilisation == b.utilisation
            assert a.grants == b.grants
        assert cached.cache_hits == 1

    @settings(max_examples=30, deadline=None)
    @given(rates=st.lists(_rate, min_size=2, max_size=6), data=st.data())
    def test_permuted_replay_reorders_the_canonical_solution(self, rates, data):
        # A permuted hit replays the *canonical* (first-solved) solution
        # with grants reordered to the caller's request order: bitwise
        # equal to the first solve per rate, and within solver tolerance
        # of an independent solve of the permuted order (bisection sums
        # floats in request order, so the last ulp may differ there).
        perm = data.draw(st.permutations(rates))
        cached = BusModel(BusConfig())
        uncached = BusModel(BusConfig(solve_cache_size=0))
        first = cached.solve(rates)
        a = cached.solve(perm)
        assert cached.cache_hits == 1
        assert a.latency_us == first.latency_us
        by_rate = dict(zip(rates, first.grants))
        assert list(a.grants) == [by_rate[r] for r in perm]
        b = uncached.solve(perm)
        assert a.latency_us == pytest.approx(b.latency_us, rel=1e-9, abs=1e-12)
        for ga, gb in zip(a.grants, b.grants):
            assert ga.speed == pytest.approx(gb.speed, rel=1e-9, abs=1e-12)


class TestRequestMemo:
    def test_request_for_rate_returns_same_object(self, bus):
        assert bus.request_for_rate(5.0) is bus.request_for_rate(5.0)

    def test_distinct_rates_distinct_requests(self, bus):
        assert bus.request_for_rate(5.0) is not bus.request_for_rate(6.0)
