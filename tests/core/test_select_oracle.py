"""Grouped selection against the one-pass scan it replaces.

``BandwidthPolicy.select`` scores each (estimate, width) group once per
traversal instead of every job. The reference below is the scan the
policy used to run, kept verbatim as the oracle: every traversal scores
every untaken job that fits and keeps the first strict maximum in list
order. On random job lists with duplicate estimates, mixed widths, few
free CPUs, every ``FITNESS_FUNCTIONS`` entry and fitness functions that
return ``-inf``, NaN or tell ``-0.0`` from ``0.0``, both must select the
same applications with the same ABBW/proc trace.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitness import FITNESS_FUNCTIONS
from repro.core.policies import JobView, LatestQuantumPolicy, Selection
from repro.errors import SchedulingError


def _reference_select(policy, jobs: list[JobView], n_cpus: int) -> Selection:
    """The one-pass scan: every traversal scores every remaining job."""
    if n_cpus < 1:
        raise SchedulingError("need at least one CPU")
    for job in jobs:
        if job.width > n_cpus:
            raise SchedulingError("too wide")
    ests = [policy.effective_estimate(job.app_id) for job in jobs]
    chosen_ids: list[int] = []
    taken: set[int] = set()
    abbw_trace: list[float] = []
    free = n_cpus
    allocated_bbw = 0.0
    for i, job in enumerate(jobs):
        if job.width <= free:
            chosen_ids.append(job.app_id)
            taken.add(job.app_id)
            free -= job.width
            allocated_bbw += ests[i] * job.width
            break
    while free > 0:
        abbw_per_proc = (policy.bus_capacity_txus - allocated_bbw) / free
        best_idx: int | None = None
        best_score = -float("inf")
        for i, job in enumerate(jobs):
            if job.app_id in taken or job.width > free:
                continue
            score = policy.fitness(abbw_per_proc, ests[i])
            if score > best_score:
                best_score = score
                best_idx = i
        if best_idx is None:
            break
        best = jobs[best_idx]
        abbw_trace.append(abbw_per_proc)
        chosen_ids.append(best.app_id)
        taken.add(best.app_id)
        free -= best.width
        allocated_bbw += ests[best_idx] * best.width
    return Selection(app_ids=tuple(chosen_ids), abbw_trace=tuple(abbw_trace))


def _neg_inf_above_two(abbw: float, bbw: float) -> float:
    return -math.inf if bbw > 2.0 else 1000.0 / (1.0 + abs(abbw - bbw))


def _nan_on_zero(abbw: float, bbw: float) -> float:
    return math.nan if bbw == 0.0 else -abs(abbw - bbw)


def _all_neg_inf(abbw: float, bbw: float) -> float:
    return -math.inf


def _sign_of_estimate(abbw: float, bbw: float) -> float:
    return math.copysign(1.0, bbw)


_FITNESS = {
    **FITNESS_FUNCTIONS,
    "neg-inf-above-2": _neg_inf_above_two,
    "nan-on-zero": _nan_on_zero,
    "all-neg-inf": _all_neg_inf,
    "sign": _sign_of_estimate,
}

#: A few values, so estimates repeat; None = never measured (reads 0.0).
_ESTIMATES = st.sampled_from([None, 0.0, -0.0, 0.5, 1.0, 2.0, 2.0 + 1e-12, 3.0, 7.25, 12.0])


@st.composite
def _worlds(draw):
    n_cpus = draw(st.integers(1, 8))
    n_jobs = draw(st.integers(0, 14))
    jobs = []
    estimates = {}
    for app_id in range(1, n_jobs + 1):
        jobs.append(JobView(app_id=app_id, width=draw(st.integers(1, min(n_cpus, 4)))))
        estimates[app_id] = draw(_ESTIMATES)
    order = draw(st.permutations(jobs))
    capacity = draw(st.sampled_from([1.0, 6.0, 29.5]))
    return n_cpus, list(order), estimates, capacity


def _policy(name: str, estimates: dict, capacity: float) -> LatestQuantumPolicy:
    policy = LatestQuantumPolicy(bus_capacity_txus=capacity, fitness_fn=_FITNESS[name])
    for app_id, est in estimates.items():
        if est is not None:
            policy.on_quantum(app_id, est)
    return policy


@pytest.mark.parametrize("name", sorted(_FITNESS))
@settings(max_examples=150, deadline=None)
@given(world=_worlds())
def test_grouped_select_matches_the_one_pass_scan(name, world):
    n_cpus, jobs, estimates, capacity = world
    policy = _policy(name, estimates, capacity)
    got = policy.select(jobs, n_cpus)
    want = _reference_select(policy, jobs, n_cpus)
    assert got.app_ids == want.app_ids
    assert got.abbw_trace == want.abbw_trace


def test_default_eq1_matches_the_scan_too():
    jobs = [JobView(app_id=i, width=1 + i % 2) for i in range(1, 9)]
    policy = LatestQuantumPolicy()
    for job in jobs:
        policy.on_quantum(job.app_id, float(job.app_id % 3))
    assert policy.select(jobs, 6) == _reference_select(policy, jobs, 6)


def test_one_fitness_call_per_group_per_traversal():
    calls = []

    def counting(abbw: float, bbw: float) -> float:
        calls.append(bbw)
        return 1000.0 / (1.0 + abs(abbw - bbw))

    jobs = [JobView(app_id=i, width=1) for i in range(1, 257)]
    policy = LatestQuantumPolicy(bus_capacity_txus=1888.0, fitness_fn=counting)
    for job in jobs:
        policy.on_quantum(job.app_id, 23.6 if job.app_id % 4 else 0.3)
    sel = policy.select(jobs, 64)
    assert len(sel.app_ids) == 64
    # Two (estimate, width) groups: at most two scores per traversal.
    assert len(calls) <= 2 * 63
    ref_policy = LatestQuantumPolicy(bus_capacity_txus=1888.0)
    for job in jobs:
        ref_policy.on_quantum(job.app_id, 23.6 if job.app_id % 4 else 0.3)
    assert sel == _reference_select(ref_policy, jobs, 64)
