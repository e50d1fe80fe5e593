"""Settle-loop fast path: horizon caching and solve-skip accounting.

While a machine's configuration is unchanged, every internal transition
is a constant absolute instant, so `horizon()` is cached per
configuration and invalidated by any reconfiguration. These tests pin
that contract: the cache must never change *what* the horizon is, only
how often it is recomputed, and the skip/rebuild counters must tell the
two settle paths apart.
"""

import math

import pytest

from repro.config import BusConfig, MachineConfig
from repro.hw.machine import _SOA_MIN_CPUS, Machine
from repro.sim.engine import Engine
from tests.conftest import PATH_CASES, machine_path, thread_speed


class _FlatDemand:
    """Constant-rate demand (implements the DemandProcess protocol)."""

    def __init__(self, rate: float = 5.0):
        self._rate = rate

    def segment(self, work: float) -> tuple[float, float]:
        return self._rate, math.inf


def _machine_with_thread(rate: float = 5.0, work: float = 1_000.0):
    engine = Engine()
    machine = Machine(MachineConfig(), engine)
    tid = machine.add_thread("t0", _FlatDemand(rate), work_total=work).tid
    machine.dispatch(0, tid)
    return engine, machine, tid


class TestHorizonCache:
    def test_idle_machine_horizon_is_inf(self):
        machine = Machine(MachineConfig(), Engine())
        assert machine.horizon() == math.inf
        assert machine.horizon() == math.inf  # cached inf stays inf

    def test_repeated_queries_return_identical_value(self):
        _, machine, _ = _machine_with_thread()
        first = machine.horizon()
        assert math.isfinite(first)
        for _ in range(5):
            assert machine.horizon() == first

    def test_advance_preserves_absolute_horizon(self):
        # Advancing (no reconfiguration) must not move the transition
        # instant: the cached absolute horizon stays valid and correct.
        _, machine, _ = _machine_with_thread()
        first = machine.horizon()
        machine.advance_to(first / 2)
        assert machine.horizon() == first

    def test_dispatch_invalidates_horizon(self):
        engine, machine, tid = _machine_with_thread()
        h1 = machine.horizon()
        t2 = machine.add_thread("t1", _FlatDemand(30.0), work_total=1_000.0).tid
        machine.dispatch(1, t2)
        h2 = machine.horizon()
        assert h2 != h1  # contention slows t0; completion moves out

    def test_rebuild_debt_invalidates_horizon(self):
        _, machine, tid = _machine_with_thread()
        h1 = machine.horizon()
        machine.add_rebuild_debt(tid, 1_000.0)
        h2 = machine.horizon()
        assert h2 != h1

    def test_cached_horizon_matches_fresh_computation(self):
        # Force a recompute via an idempotent reconfiguration (idle an
        # unused cpu slot) and compare against the cached value.
        _, machine, _ = _machine_with_thread()
        cached = machine.horizon()
        machine.dispatch(1, None)  # no-op placement, but marks dirty
        assert machine.horizon() == cached


class TestSettleCounters:
    def test_solve_skip_on_identical_signature(self):
        _, machine, tid = _machine_with_thread()
        machine.horizon()
        rebuilds = machine.lane_rebuilds
        machine.dispatch(1, None)  # dirty without changing the running set
        machine.horizon()
        assert machine.lane_rebuilds == rebuilds
        assert machine.solve_skips >= 1

    def test_lane_rebuild_on_real_change(self):
        _, machine, _ = _machine_with_thread()
        machine.horizon()
        rebuilds = machine.lane_rebuilds
        t2 = machine.add_thread("t1", _FlatDemand(10.0), work_total=500.0).tid
        machine.dispatch(1, t2)
        machine.horizon()
        assert machine.lane_rebuilds == rebuilds + 1

    def test_settle_calls_count_advances(self):
        _, machine, _ = _machine_with_thread()
        before = machine.settle_calls
        machine.advance_to(1.0)
        machine.advance_to(2.0)
        assert machine.settle_calls == before + 2


def _path_pair(n_cpus: int = 8, smt_ways: int = 1) -> tuple[Machine, Machine]:
    """The same machine twice, forced onto the scalar and the SoA path."""
    cfg = MachineConfig(n_cpus=n_cpus, smt_ways=smt_ways)
    with machine_path(soa=False):
        scalar = Machine(cfg, Engine())
    with machine_path(soa=True):
        soa = Machine(cfg, Engine())
    assert not scalar._soa and soa._soa
    return scalar, soa


def _mirror(machines, op):
    """Apply the same operation to both machines, return both results."""
    return [op(m) for m in machines]


class TestPathSelector:
    """The machine size picks the hot path; the solver mode never does."""

    @pytest.mark.parametrize("mode", ["bisect", "newton", "vector"])
    def test_small_machines_run_scalar_large_run_soa(self, mode):
        def build(n_cpus: int, smt_ways: int = 1) -> Machine:
            bus = BusConfig(solver_mode=mode)
            return Machine(MachineConfig(n_cpus=n_cpus, smt_ways=smt_ways, bus=bus), Engine())

        assert not build(4)._soa
        assert build(256)._soa
        assert not build(_SOA_MIN_CPUS - 1)._soa
        # Logical CPUs count: SMT siblings reach the threshold together.
        assert build(_SOA_MIN_CPUS // 2, smt_ways=2)._soa


class TestVectorSettleParity:
    """Scalar and SoA settle paths: same bits, with and without SMT."""

    def _populate(self, machine: Machine, n: int = 6) -> list[int]:
        tids = []
        for i in range(n):
            st = machine.add_thread(
                f"t{i}", _FlatDemand(8.0 + 3.0 * i), work_total=5_000.0,
                footprint_lines=500.0 * (i + 1),
            )
            machine.dispatch(i, st.tid)
            tids.append(st.tid)
        return tids

    def _assert_same_state(self, scalar: Machine, soa: Machine, tids):
        for tid in tids:
            a, b = scalar.thread(tid), soa.thread(tid)
            assert b.work_done == a.work_done
            assert b.run_time_us == a.run_time_us
            assert b.rebuild_debt == a.rebuild_debt
        for cpu in range(len(scalar.cpus)):
            ca, cb = scalar.cache_of(cpu), soa.cache_of(cpu)
            for tid in tids:
                assert cb.resident(tid) == ca.resident(tid)
        assert soa.horizon() == scalar.horizon()
        assert soa.bus_total_txus == scalar.bus_total_txus
        for tid in tids:
            assert thread_speed(soa, tid) == thread_speed(scalar, tid)

    def test_advance_is_bit_identical(self):
        for smt_ways in PATH_CASES:
            pair = _path_pair(smt_ways=smt_ways)
            tids, tids_soa = _mirror(pair, self._populate)
            assert tids == tids_soa
            for t in (1.0, 7.5, 40.0, 41.25):
                _mirror(pair, lambda m: m.advance_to(t))
            self._assert_same_state(*pair, tids)

    def test_reconfiguration_sequence_is_bit_identical(self):
        for smt_ways in PATH_CASES:
            pair = _path_pair(smt_ways=smt_ways)
            tids, _ = _mirror(pair, self._populate)
            _mirror(pair, lambda m: m.advance_to(5.0))
            _mirror(pair, lambda m: m.set_blocked(tids[2], True))
            _mirror(pair, lambda m: m.advance_to(9.0))
            _mirror(pair, lambda m: m.set_blocked(tids[2], False))
            _mirror(pair, lambda m: m.dispatch(2, tids[2]))
            _mirror(pair, lambda m: m.advance_to(30.0))
            self._assert_same_state(*pair, tids)

    def test_dirty_mask_reuses_clean_entries(self):
        scalar, soa = _path_pair()
        self._populate(scalar)
        tids = self._populate(soa)
        for m in (scalar, soa):
            m.advance_to(2.0)
            # Touch a single thread; the other five lane entries are clean.
            m.add_rebuild_debt(tids[0], 100.0)
            m.advance_to(3.0)
        assert soa.dirty_mask_hits >= 5
        assert scalar.dirty_mask_hits == 0

    @pytest.mark.parametrize("smt_ways", PATH_CASES)
    def test_migration_on_solve_skip_path_accounts_correct_cache(self, smt_ways):
        # Regression: a lone thread's migration leaves the lane signature
        # unchanged (it encodes tids and rates, not CPU ids), so the entry
        # build takes the solve-skip path. The SoA advance must still
        # charge the *new* CPU's cache, like the scalar path's live
        # ``st.cpu`` read does: its lane handles are rebound from the
        # store's placement on every solve skip.
        pair = _path_pair(n_cpus=2, smt_ways=smt_ways)
        scalar, soa = pair
        # With SMT, logical CPUs 0..smt_ways-1 share core 0's cache; use
        # the first logical CPU of each core so the caches are distinct
        # (one thread per core also keeps the SMT factor at 1.0).
        cpu_a, cpu_b = 0, smt_ways
        bg, bg_soa = _mirror(
            pair,
            lambda m: m.add_thread(
                "warm", _FlatDemand(20.0), work_total=10_000.0,
                footprint_lines=4_000.0,
            ).tid,
        )
        assert bg == bg_soa
        # Fill core B's cache with the warm thread's working set, idle it.
        _mirror(pair, lambda m: m.dispatch(cpu_b, bg))
        _mirror(pair, lambda m: m.advance_to(150.0))
        _mirror(pair, lambda m: m.dispatch(cpu_b, None))
        # A zero-footprint streamer (no rebuild debt anywhere, so its
        # lane entry is identical on any CPU) starts on core A ...
        mover, _ = _mirror(
            pair,
            lambda m: m.add_thread(
                "stream", _FlatDemand(25.0), work_total=20_000.0,
                footprint_lines=0.0,
            ).tid,
        )
        _mirror(pair, lambda m: m.dispatch(cpu_a, mover))
        _mirror(pair, lambda m: m.advance_to(200.0))
        # ... then migrates to core B and keeps streaming: its inflow
        # must now evict the warm thread's lines from core B's cache.
        _mirror(pair, lambda m: m.dispatch(cpu_b, mover))
        _mirror(pair, lambda m: m.advance_to(400.0))
        assert soa.solve_skips >= 1
        ref = scalar.cache_of(cpu_b).resident(bg)
        assert ref < scalar.cache_of(cpu_a).total_lines  # eviction happened
        assert soa.cache_of(cpu_b).resident(bg) == ref
        for tid in (bg, mover):
            assert soa.thread(tid).work_done == scalar.thread(tid).work_done
