"""Policy selection algorithm tests (Section 4 semantics)."""

import pytest

from repro.core.fitness import constant_fitness
from repro.core.policies import (
    EwmaPolicy,
    JobView,
    LatestQuantumPolicy,
    QuantaWindowPolicy,
)
from repro.errors import SchedulingError


def _jobs(widths):
    return [JobView(app_id=i + 1, width=w) for i, w in enumerate(widths)]


class TestSelectionAlgorithm:
    def test_head_always_allocated(self):
        pol = LatestQuantumPolicy()
        # head is a bandwidth monster; it still runs (no starvation)
        pol.on_quantum(1, 23.6)
        sel = pol.select(_jobs([2, 2, 1, 1]), n_cpus=4)
        assert sel.app_ids[0] == 1

    def test_fills_all_cpus_when_possible(self):
        pol = LatestQuantumPolicy()
        sel = pol.select(_jobs([2, 1, 1, 2]), n_cpus=4)
        total = sum(2 if a in (1, 4) else 1 for a in sel.app_ids)
        assert total == 4

    def test_pairs_high_with_low(self):
        # capacity 29.5; head = high-bw app (11 tx/us/thread, 2 threads).
        # remaining budget/proc = (29.5-22)/2 = 3.75: the 4 tx/us job fits
        # better than the 11 tx/us one.
        pol = LatestQuantumPolicy()
        pol.on_quantum(1, 11.0)
        pol.on_quantum(2, 11.0)
        pol.on_quantum(3, 4.0)
        sel = pol.select(_jobs([2, 2, 2]), n_cpus=4)
        assert sel.app_ids == (1, 3)

    def test_saturation_picks_lowest_bandwidth(self):
        # head already overcommits the bus: ABBW negative, lowest-BBW wins
        pol = LatestQuantumPolicy(bus_capacity_txus=29.5)
        pol.on_quantum(1, 23.6)
        pol.on_quantum(2, 23.6)
        pol.on_quantum(3, 12.0)
        pol.on_quantum(4, 0.1)
        sel = pol.select(_jobs([2, 1, 1, 1]), n_cpus=4)
        # after head (2 cpus, 47.2 tx/us > capacity), remaining picks should
        # start with the 0.1 tx/us job
        assert 4 in sel.app_ids
        assert sel.app_ids.index(4) == 1

    def test_too_wide_job_rejected(self):
        pol = LatestQuantumPolicy()
        with pytest.raises(SchedulingError):
            pol.select(_jobs([5]), n_cpus=4)

    def test_widths_respected(self):
        pol = LatestQuantumPolicy()
        sel = pol.select(_jobs([3, 2, 2, 1]), n_cpus=4)
        # head (3 wide) + only the 1-wide job fits
        assert sel.app_ids == (1, 4)

    def test_empty_jobs(self):
        pol = LatestQuantumPolicy()
        sel = pol.select([], n_cpus=4)
        assert sel.app_ids == ()

    def test_abbw_trace_exposed(self):
        pol = LatestQuantumPolicy()
        pol.on_quantum(1, 10.0)
        sel = pol.select(_jobs([2, 1, 1]), n_cpus=4)
        assert len(sel.abbw_trace) == len(sel.app_ids) - 1
        # first post-head ABBW: (29.5 - 20)/2
        assert sel.abbw_trace[0] == pytest.approx((29.5 - 20.0) / 2.0)

    def test_unknown_estimate_treated_as_zero(self):
        pol = LatestQuantumPolicy()
        assert pol.estimate(42) is None
        assert pol.effective_estimate(42) == 0.0


class TestLatestQuantum:
    def test_uses_last_quantum_only(self):
        pol = LatestQuantumPolicy()
        pol.on_quantum(1, 5.0)
        pol.on_quantum(1, 9.0)
        assert pol.estimate(1) == 9.0

    def test_samples_ignored(self):
        pol = LatestQuantumPolicy()
        pol.on_sample(1, 100.0)
        assert pol.estimate(1) is None

    def test_forget(self):
        pol = LatestQuantumPolicy()
        pol.on_quantum(1, 5.0)
        pol.forget(1)
        assert pol.estimate(1) is None


class TestQuantaWindow:
    def test_averages_last_w_samples(self):
        pol = QuantaWindowPolicy(window_length=3)
        for r in (2.0, 4.0, 6.0, 8.0):
            pol.on_sample(1, r)
        assert pol.estimate(1) == pytest.approx(6.0)

    def test_smooths_bursts(self):
        latest = LatestQuantumPolicy()
        window = QuantaWindowPolicy(window_length=5)
        trace = [2.0, 2.0, 2.0, 2.0, 20.0]  # one burst sample
        for r in trace:
            window.on_sample(1, r)
            latest.on_quantum(1, r)
        assert latest.estimate(1) == 20.0
        assert window.estimate(1) == pytest.approx(5.6)

    def test_invalid_window(self):
        with pytest.raises(SchedulingError):
            QuantaWindowPolicy(window_length=0)

    def test_quantum_updates_ignored(self):
        pol = QuantaWindowPolicy()
        pol.on_quantum(1, 7.0)
        assert pol.estimate(1) is None


class TestEwma:
    def test_update(self):
        pol = EwmaPolicy(alpha=0.5)
        pol.on_sample(1, 4.0)
        pol.on_sample(1, 8.0)
        assert pol.estimate(1) == pytest.approx(6.0)


class TestFitnessInjection:
    def test_constant_fitness_reduces_to_list_order(self):
        pol = QuantaWindowPolicy(fitness_fn=constant_fitness)
        for app, rate in ((1, 20.0), (2, 1.0), (3, 10.0)):
            pol.on_sample(app, rate)
        sel = pol.select(_jobs([1, 1, 1, 1]), n_cpus=3)
        assert sel.app_ids == (1, 2, 3)  # pure FCFS
