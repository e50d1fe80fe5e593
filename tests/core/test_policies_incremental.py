"""The one selection pass agrees with the independent reference.

``BandwidthPolicy.select`` reads each estimate once per call, keeps the
allocated-BBW sum as a running accumulator and keeps the first strict
maximum of Equation 1 in list order. :func:`repro.audit.reference_selection`
re-derives the same algorithm from the paper's prose. This module drives
both through random estimator histories and job mixes, for every
estimator and every registered fitness function, and requires equal
selections. (``incremental`` is an inert policy field kept for the wire
format.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import reference_selection
from repro.core.fitness import FITNESS_FUNCTIONS
from repro.core.policies import (
    EwmaPolicy,
    JobView,
    LatestQuantumPolicy,
    QuantaWindowPolicy,
)

_rates = st.floats(min_value=0.0, max_value=40.0, allow_nan=False, allow_infinity=False)
_widths = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=8)

# One estimator event: (app_index, rate, saturated, via_quantum-or-sample)
_events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        _rates,
        st.booleans(),
        st.booleans(),
    ),
    max_size=24,
)


def _jobs(widths):
    return [JobView(app_id=i + 1, width=w) for i, w in enumerate(widths)]


def _feed(policy, jobs, events):
    for idx, rate, saturated, quantum in events:
        app_id = jobs[idx % len(jobs)].app_id
        if quantum:
            policy.on_quantum(app_id, rate, saturated=saturated)
        else:
            policy.on_sample(app_id, rate, saturated=saturated)


def _assert_matches_reference(policy, jobs, n_cpus):
    expected = reference_selection(
        jobs, n_cpus, policy.bus_capacity_txus, policy.effective_estimate, policy.fitness
    )
    assert policy.select(jobs, n_cpus).app_ids == expected


@given(_widths, _events, st.integers(min_value=4, max_value=16))
@settings(max_examples=200, deadline=None)
def test_latest_quantum_selects_identically(widths, events, n_cpus):
    jobs = _jobs([min(w, n_cpus) for w in widths])
    policy = LatestQuantumPolicy()
    _feed(policy, jobs, events)
    _assert_matches_reference(policy, jobs, n_cpus)


@given(_widths, _events, st.integers(min_value=4, max_value=16))
@settings(max_examples=150, deadline=None)
def test_quanta_window_selects_identically_across_interleaving(widths, events, n_cpus):
    # Interleave selection rounds with estimator updates: every select
    # must see the estimates as they are now.
    jobs = _jobs([min(w, n_cpus) for w in widths])
    policy = QuantaWindowPolicy()
    half = len(events) // 2
    for chunk in (events[:half], events[half:]):
        _feed(policy, jobs, chunk)
        _assert_matches_reference(policy, jobs, n_cpus)


@given(_widths, _events, st.integers(min_value=4, max_value=12))
@settings(max_examples=100, deadline=None)
def test_ewma_with_forget_selects_identically(widths, events, n_cpus):
    jobs = _jobs([min(w, n_cpus) for w in widths])
    policy = EwmaPolicy()
    _feed(policy, jobs, events)
    policy.forget(jobs[0].app_id)  # a forgotten app falls back to estimate 0
    _assert_matches_reference(policy, jobs, n_cpus)


@given(
    _widths,
    _events,
    st.integers(min_value=4, max_value=12),
    st.sampled_from(sorted(FITNESS_FUNCTIONS)),
    st.sampled_from([LatestQuantumPolicy, QuantaWindowPolicy, EwmaPolicy]),
)
@settings(max_examples=200, deadline=None)
def test_every_fitness_function_matches_reference(widths, events, n_cpus, fitness, cls):
    jobs = _jobs([min(w, n_cpus) for w in widths])
    policy = cls(fitness_fn=FITNESS_FUNCTIONS[fitness])
    _feed(policy, jobs, events)
    _assert_matches_reference(policy, jobs, n_cpus)


def test_selection_calls_counted():
    policy = LatestQuantumPolicy()
    jobs = _jobs([1, 2, 1])
    policy.select(jobs, 4)
    policy.select(jobs, 4)
    assert policy.selection_profile() == {"selection_calls": 2.0}
