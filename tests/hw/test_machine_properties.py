"""Property-based tests: machine invariants under random operation sequences.

Hypothesis drives random interleavings of dispatch / preempt / block /
advance operations against the machine and asserts the conservation laws
that every experiment silently relies on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig
from repro.hw.machine import Machine
from repro.sim.engine import Engine
from repro.workloads.patterns import ConstantPattern, PhasedPattern


def _machine_with_threads(rates, n_cpus=4, work=50_000.0):
    engine = Engine()
    machine = Machine(MachineConfig(n_cpus=n_cpus), engine)
    threads = []
    for i, r in enumerate(rates):
        pattern = (
            ConstantPattern(r)
            if i % 2 == 0
            else PhasedPattern(((1_000.0, r), (500.0, min(r * 2, 30.0))))
        )
        threads.append(
            machine.add_thread(
                f"t{i}",
                pattern.bind(np.random.default_rng(i)),
                work,
                footprint_lines=float(256 * (i + 1)),
            )
        )
    return engine, machine, threads


_ops = st.lists(
    st.tuples(
        st.sampled_from(["dispatch", "preempt", "block", "unblock", "advance"]),
        st.integers(min_value=0, max_value=7),   # thread index
        st.integers(min_value=0, max_value=3),   # cpu index
        st.floats(min_value=1.0, max_value=2_000.0),  # advance dt
    ),
    min_size=5,
    max_size=60,
)

_rates = st.lists(
    st.floats(min_value=0.0, max_value=25.0, allow_nan=False), min_size=2, max_size=8
)


@given(_rates, _ops)
@settings(max_examples=60, deadline=None)
def test_random_operation_sequences_preserve_invariants(rates, ops):
    engine, machine, threads = _machine_with_threads(rates)
    for op, t_idx, cpu_idx, dt in ops:
        thread = threads[t_idx % len(threads)]
        if op == "dispatch":
            if thread.runnable:
                machine.dispatch(cpu_idx, thread.tid)
        elif op == "preempt":
            if thread.cpu is not None:
                machine.dispatch(thread.cpu, None)
        elif op == "block":
            machine.set_blocked(thread.tid, True)
        elif op == "unblock":
            machine.set_blocked(thread.tid, False)
        else:
            engine.run_until(engine.now + dt, advancer=machine)

        # Invariant 1: a thread is on at most one CPU, and the CPU agrees.
        placements = [c.tid for c in machine.cpus if c.tid is not None]
        assert len(placements) == len(set(placements))
        for c in machine.cpus:
            if c.tid is not None:
                assert machine.thread(c.tid).cpu == c.cpu_id
        # Invariant 2: no blocked or finished thread is running.
        for th in threads:
            if th.blocked or th.finished:
                assert th.cpu is None
        # Invariant 3: counters mirror thread accounting.
        for th in threads:
            snap = machine.counters.read(th.tid)
            assert snap.cycles_us == pytest.approx(th.run_time_us, abs=1e-6)
            assert snap.work_us == pytest.approx(th.work_done, abs=1e-3)
            assert 0.0 <= th.work_done <= th.work_total + 1e-6
            assert th.rebuild_debt >= 0.0
        # Invariant 4: per-core cache occupancy bounded.
        for cache in machine.caches:
            assert cache.occupancy() <= cache.total_lines * (1 + 1e-9)
        # Invariant 5: bus utilisation well-formed.
        assert 0.0 <= machine.bus_utilisation <= 1.0


@given(_rates)
@settings(max_examples=30, deadline=None)
def test_work_conservation_running_to_completion(rates):
    """Running any thread set to completion accumulates exactly its work."""
    engine, machine, threads = _machine_with_threads(rates[:4], work=5_000.0)
    for i, th in enumerate(threads):
        machine.dispatch(i % machine.n_cpus, th.tid)
    engine.run(advancer=machine, stop=machine.all_finished, max_time=1e9)
    for th in threads:
        assert th.finished
        assert th.work_done == pytest.approx(th.work_total, abs=1e-3)
        snap = machine.counters.read(th.tid)
        assert snap.work_us == pytest.approx(th.work_total, abs=1e-3)
        # wall time on CPU is at least the work (speed <= 1)
        assert snap.cycles_us >= th.work_total * (1 - 1e-9)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_total_throughput_never_exceeds_capacity(seed):
    """Integrated transactions never exceed capacity x busy time."""
    rng = np.random.default_rng(seed)
    rates = [float(rng.uniform(0, 24)) for _ in range(4)]
    engine, machine, threads = _machine_with_threads(rates, work=20_000.0)
    for i, th in enumerate(threads):
        machine.dispatch(i, th.tid)
    engine.run(advancer=machine, stop=machine.all_finished, max_time=1e9)
    total_tx = sum(machine.counters.read(t.tid).bus_transactions for t in threads)
    capacity = machine.bus.capacity
    assert total_tx <= capacity * machine.now * (1 + 1e-9)
