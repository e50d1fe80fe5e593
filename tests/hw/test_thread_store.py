"""Struct-of-arrays thread store: view round-trips and SoA bit-identity.

Three layers of guarantees pinned here:

1. :class:`repro.hw.store.ThreadStore` mechanics — append defaults,
   growth preserving rows.
2. :class:`repro.hw.machine.ThreadState` is a *view*: attribute writes
   land in the store arrays and direct array writes are visible through
   the attributes (policies, audit, faults and the batched machine loops
   share one source of truth).
3. The SoA hot path is bit-identical to the scalar lane loops, with and
   without SMT, for randomized operation sequences —
   drifting warm starts (rebuild-debt churn), migrations, blocking,
   stalls and mid-run kills — and under a full faulted simulation.
   The machine's incremental ready set must always equal the brute-force
   recomputation on both paths (the kernel pick scan trusts it).
"""

import math

import numpy as np
import pytest

from repro.config import BusConfig, MachineConfig
from repro.hw.machine import Machine
from repro.hw.store import BOOL_FIELDS, FLOAT_FIELDS, INT_FIELDS, ThreadStore
from repro.sim.engine import Engine
from tests.conftest import PATH_CASES, bus_finder, machine_path, thread_speed


class _FlatDemand:
    def __init__(self, rate: float = 5.0):
        self._rate = rate

    def segment(self, work: float) -> tuple[float, float]:
        return self._rate, math.inf


class _SteppedDemand:
    """Piecewise demand so SoA runs exercise the segment cache."""

    def __init__(self, rates, step_work: float):
        self._rates = rates
        self._step = step_work

    def segment(self, work: float) -> tuple[float, float]:
        k = int(work // self._step)
        if k >= len(self._rates) - 1:
            return self._rates[-1], math.inf
        return self._rates[k], (k + 1) * self._step


class TestThreadStore:
    def test_add_returns_consecutive_rows_with_defaults(self):
        store = ThreadStore(capacity=2)
        assert store.add() == 0
        assert store.add() == 1
        assert store.work_done[1] == 0.0
        assert store.next_io_at_work[1] == math.inf
        assert store.seg_end[1] == -math.inf  # stale sentinel
        assert store.cpu[1] == -1 and store.last_cpu[1] == -1
        assert not any(getattr(store, name)[1] for name in BOOL_FIELDS)

    def test_growth_preserves_existing_rows(self):
        store = ThreadStore(capacity=2)
        store.add()
        store.work_done[0] = 123.5
        store.cpu[0] = 3
        store.blocked[0] = True
        for _ in range(10):  # forces several doublings
            store.add()
        assert store.n == 11
        assert store.work_done[0] == 123.5
        assert store.cpu[0] == 3
        assert bool(store.blocked[0])
        assert store.cpu[10] == -1

    def test_field_groups_cover_slots(self):
        store = ThreadStore()
        for name in FLOAT_FIELDS + INT_FIELDS + BOOL_FIELDS:
            assert isinstance(getattr(store, name), np.ndarray)


class TestThreadStateView:
    def _machine(self):
        machine = Machine(MachineConfig(), Engine())
        state = machine.add_thread(
            "t", _FlatDemand(), work_total=1_000.0, footprint_lines=64.0
        )
        return machine, state

    def test_attribute_writes_visible_in_arrays(self):
        machine, st = self._machine()
        row = st.tid - 1
        st.work_done = 42.5
        st.rebuild_debt = 7.0
        st.blocked = True
        st.cpu = 2
        st.last_cpu = None
        s = machine.store
        assert s.work_done[row] == 42.5
        assert s.rebuild_debt[row] == 7.0
        assert bool(s.blocked[row])
        assert s.cpu[row] == 2
        assert s.last_cpu[row] == -1

    def test_array_writes_visible_through_attributes(self):
        machine, st = self._machine()
        row = st.tid - 1
        s = machine.store
        s.work_done[row] = 11.25
        s.cpu[row] = -1
        s.in_io[row] = True
        s.next_io_at_work[row] = 500.0
        assert st.work_done == 11.25
        assert st.cpu is None
        assert st.in_io is True
        assert st.next_io_at_work == 500.0
        assert not st.runnable  # derived property reads the same arrays

    def test_properties_return_plain_python_scalars(self):
        machine, st = self._machine()
        machine.dispatch(0, st.tid)
        assert type(st.work_done) is float
        assert type(st.cpu) is int
        assert type(st.finished) is bool

    def test_row_matches_tid_assignment(self):
        machine = Machine(MachineConfig(), Engine())
        for _ in range(5):
            st = machine.add_thread("x", _FlatDemand(), work_total=10.0)
            assert machine.store.work_total[st.tid - 1] == 10.0


def _brute_force_ready(machine: Machine) -> list[int]:
    return sorted(
        t.tid for t in machine.threads() if t.runnable and t.cpu is None
    )


def _path_machine(
    soa: bool, n_cpus: int = 4, smt_ways: int = 1, bus: BusConfig = BusConfig()
) -> Machine:
    cfg = MachineConfig(n_cpus=n_cpus, smt_ways=smt_ways, bus=bus)
    with machine_path(soa):
        return Machine(cfg, Engine())


def _path_pair(smt_ways: int) -> list[Machine]:
    """Scalar and SoA machines with 4 logical CPUs (2 cores × 2 under SMT)."""
    n_cpus = 4 // smt_ways
    return [_path_machine(soa, n_cpus=n_cpus, smt_ways=smt_ways) for soa in (False, True)]


def _apply_random_ops(machines, seed: int, steps: int = 60, n_cpus: int = 4):
    """Drive identical randomized lifecycles on every machine in ``machines``.

    Exercises dispatch/migration, block/unblock, rebuild-debt drift,
    stalls, kills and settle intervals clipped to the horizon — the full
    surface the SoA path must keep bit-identical to the scalar reference.
    """
    rng = np.random.default_rng(seed)
    n_threads = int(rng.integers(3, 8))
    for i in range(n_threads):
        rate = float(rng.uniform(2.0, 30.0))
        work = float(rng.uniform(500.0, 3_000.0))
        fp = float(rng.uniform(0.0, 2_000.0))
        sens = float(rng.uniform(0.0, 1.0))
        demand = _SteppedDemand(
            [rate, rate * 0.5, rate * 1.5], step_work=work / 4.0
        )
        for m in machines:
            m.add_thread(
                f"t{i}", demand, work_total=work, footprint_lines=fp,
                migration_sensitivity=sens,
            )
    for _ in range(steps):
        ref = machines[0]
        op = int(rng.integers(0, 5))
        if op == 0:  # (re)dispatch a runnable thread somewhere (may migrate)
            cands = [
                t.tid for t in ref.runnable_threads() if not t.finished
            ]
            if cands:
                tid = cands[int(rng.integers(0, len(cands)))]
                cpu = int(rng.integers(0, n_cpus))
                for m in machines:
                    if m.cpus[cpu].tid != tid:
                        m.dispatch(cpu, tid)
        elif op == 1:  # toggle blocked on a random unfinished thread
            cands = [t.tid for t in ref.threads() if not t.finished]
            if cands:
                tid = cands[int(rng.integers(0, len(cands)))]
                flag = not ref.thread(tid).blocked
                for m in machines:
                    m.set_blocked(tid, flag)
        elif op == 2:  # warm-start drift: pile on rebuild debt
            cands = [t.tid for t in ref.threads() if not t.finished]
            if cands:
                tid = cands[int(rng.integers(0, len(cands)))]
                lines = float(rng.uniform(10.0, 500.0))
                for m in machines:
                    m.add_rebuild_debt(tid, lines)
        elif op == 3:  # stall/resume (keeps its CPU, zero progress)
            cands = [t.tid for t in ref.threads() if not t.finished]
            if cands:
                tid = cands[int(rng.integers(0, len(cands)))]
                flag = not ref.thread(tid).stalled
                for m in machines:
                    m.set_stalled(tid, flag)
        elif op == 4 and rng.random() < 0.25:  # rare mid-run kill
            cands = [t.tid for t in ref.threads() if not t.finished]
            if cands:
                tid = cands[int(rng.integers(0, len(cands)))]
                for m in machines:
                    m.kill_thread(tid)
        # settle forward, never past the earliest internal transition.
        # Poll horizon() on every machine: the engine queries it each loop
        # in every mode, and the cached *absolute* horizon is bit-stable
        # only when machines recompute it at the same instants.
        horizons = [m.horizon() for m in machines]
        horizon = horizons[0]
        dt = float(rng.uniform(0.5, 40.0))
        target = ref.now + dt
        if math.isfinite(horizon):
            target = min(target, horizon)
        for m in machines:
            m.advance_to(target)
        yield target


class TestReadySetInvariant:
    # solver_mode is inert: any accepted value must leave the set exact.
    @pytest.mark.parametrize("solver_mode", ["newton", "vector"])
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_ready_set_matches_brute_force(self, solver_mode, seed):
        for soa in (False, True):
            machine = _path_machine(soa, bus=BusConfig(solver_mode=solver_mode))
            for _ in _apply_random_ops([machine], seed):
                assert machine.ready_tids() == _brute_force_ready(machine)
                runnable = machine.runnable_threads()
                assert runnable == [t for t in machine.threads() if t.runnable]

    def test_occupancy_mirror_tracks_cpus(self):
        for soa in (False, True):
            machine = _path_machine(soa)
            for _ in _apply_random_ops([machine], seed=3):
                for cpu in machine.cpus:
                    want = -1 if cpu.tid is None else cpu.tid
                    assert machine.cpu_tids[cpu.cpu_id] == want


#: Store columns carrying physics (compared bit-exact across the two
#: paths). seg_rate/seg_end are the SoA path's private segment cache —
#: the scalar lane loops never populate them.
_PHYSICS_FLOATS = (
    "work_done", "work_total", "rebuild_debt", "next_io_at_work",
    "run_time_us", "footprint_lines",
)


def _assert_stores_identical(a: Machine, b: Machine):
    sa, sb = a.store, b.store
    assert sa.n == sb.n
    n = sa.n
    for name in _PHYSICS_FLOATS + INT_FIELDS + BOOL_FIELDS:
        ca, cb = getattr(sa, name)[:n], getattr(sb, name)[:n]
        assert np.array_equal(ca, cb), f"store column {name} diverged"
    for tid in range(1, n + 1):
        assert a.counters.read(tid) == b.counters.read(tid)


class TestScalarVsSoAPropertyIdentity:
    """Randomized lifecycle sequences: scalar and SoA paths, same bits."""

    @pytest.mark.parametrize("smt_ways", PATH_CASES)
    @pytest.mark.parametrize("seed", [1, 5, 12, 31, 48])
    def test_random_op_sequences_bit_identical(self, seed, smt_ways):
        scalar, soa = machines = _path_pair(smt_ways)
        assert soa._soa and not scalar._soa
        for _ in _apply_random_ops(machines, seed):
            assert soa.horizon() == scalar.horizon()
            _assert_stores_identical(scalar, soa)
        assert soa.bus_total_txus == scalar.bus_total_txus

    def test_thread_speed_matches_scalar_lookup(self):
        for smt_ways in PATH_CASES:
            scalar, soa = machines = _path_pair(smt_ways)
            for _ in _apply_random_ops(machines, seed=9, steps=20):
                for t in scalar.threads():
                    assert thread_speed(soa, t.tid) == thread_speed(scalar, t.tid)


class TestFaultedRunIdentity:
    def test_faulted_simulation_bit_identical_newton_vs_vector(self):
        # Faults add mid-quantum app crashes (immediate disconnect), hangs
        # (stalls) and PMC/signal perturbations — with the batched Newton
        # finder forced, the SoA path must track the scalar lane loops
        # through all of them.
        from repro.core.policies import QuantaWindowPolicy
        from repro.experiments.base import SimulationSpec, run_simulation
        from repro.faults import FaultPlan
        from repro.workloads.microbench import bbma_spec, nbbma_spec
        from repro.workloads.suites import PAPER_APPS

        plan = FaultPlan(
            pmc_jitter=0.2, signal_drop_prob=0.1, crash_prob=0.3,
            hang_prob=0.2, stall_prob=0.3,
        )

        def spec():
            apps = [PAPER_APPS[n].scaled(0.05) for n in ("CG", "Barnes")]
            return SimulationSpec(
                targets=[apps[0], apps[0], apps[1]],
                background=[bbma_spec(), nbbma_spec()],
                scheduler=QuantaWindowPolicy(),
                machine=MachineConfig(
                    n_cpus=8,
                    bus=BusConfig(capacity_txus=BusConfig().capacity_txus * 2.0),
                ),
                seed=11,
                faults=plan,
            )

        with bus_finder(batched=True):
            with machine_path(soa=False):
                ref = run_simulation(spec())
            with machine_path(soa=True):
                vec = run_simulation(spec())
        assert ref.bus_warm_starts > 0
        assert vec == ref
        assert vec.apps == ref.apps
