"""Cross-module invariants checked on randomized whole-system runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import LatestQuantumPolicy, QuantaWindowPolicy
from repro.experiments.base import SimulationSpec, run_simulation_with_handle
from repro.workloads.synth import random_workload


def _run_random(seed: int, scheduler):
    rng = np.random.default_rng(seed)
    n_apps = int(rng.integers(2, 6))
    specs = random_workload(rng, n_apps=n_apps, n_cpus=4, work_range_us=(20_000.0, 80_000.0))
    spec = SimulationSpec(targets=specs, scheduler=scheduler, seed=seed, timeline_period_us=5_000.0)
    return run_simulation_with_handle(spec)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=12, deadline=None)
def test_linux_conservation_and_completion(seed):
    result, handle = _run_random(seed, "linux")
    machine = handle.machine
    # every target finished with exactly its work done
    for app in handle.target_apps:
        for t in app.threads:
            assert t.finished
            assert t.work_done == pytest.approx(t.work_total, abs=1e-3)
    # counters match thread accounting
    for t in machine.threads():
        snap = machine.counters.read(t.tid)
        assert snap.cycles_us == pytest.approx(t.run_time_us, rel=1e-9, abs=1e-6)
        assert snap.work_us == pytest.approx(t.work_done, rel=1e-9, abs=1e-3)
    # total run time never exceeds cpus x makespan
    total_run = sum(t.run_time_us for t in machine.threads())
    assert total_run <= machine.n_cpus * result.makespan_us * (1 + 1e-9)
    # bus utilisation samples within [0, 1]
    for p in handle.timeline.points:
        assert 0.0 <= p.utilisation <= 1.0


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_policy_no_starvation(seed):
    pol = QuantaWindowPolicy()
    result, handle = _run_random(seed, pol)
    # all targets finished = nobody starved (run_simulation would hang or
    # hit max_time otherwise); additionally every app accumulated run time
    for app in handle.target_apps:
        assert all(t.run_time_us > 0 for t in app.threads)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_policy_gang_selection_width(seed):
    pol = LatestQuantumPolicy()
    result, handle = _run_random(seed, pol)
    machine = handle.machine
    # Every manager decision fits the machine. The packer sees *live*
    # widths (a job shrinks as its threads finish), which the quantum
    # record now carries — summing static app.n_threads here would
    # false-positive once any selected app has partially finished.
    size_of = {app.app_id: app.n_threads for app in handle.apps}
    for rec in machine.trace.records("manager.quantum"):
        widths = rec.data["widths"]
        assert sum(widths) <= machine.n_cpus
        for app_id, width in zip(rec.data["selected"], widths):
            assert 1 <= width <= size_of[app_id]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_no_thread_on_two_cpus_ever(seed):
    result, handle = _run_random(seed, "linux26")
    # structural invariant maintained by the machine: spot-check final state
    machine = handle.machine
    seen = [c.tid for c in machine.cpus if c.tid is not None]
    assert len(seen) == len(set(seen))
    # and dispatch counts are consistent with trace records
    total_dispatch = sum(t.dispatch_count for t in machine.threads())
    assert total_dispatch == machine.trace.count("sched.dispatch") + machine.trace.count(
        "sched.migrate"
    )
