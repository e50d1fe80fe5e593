"""Property-based tests for the selection algorithm."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import JobView, LatestQuantumPolicy

_widths = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=10)
_rates = st.dictionaries(
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    max_size=10,
)


def _policy_with(rates):
    pol = LatestQuantumPolicy()
    for app, rate in rates.items():
        pol.on_quantum(app, rate)
    return pol


@given(_widths, _rates)
@settings(max_examples=300, deadline=None)
def test_selection_fits_machine(widths, rates):
    jobs = [JobView(i + 1, w) for i, w in enumerate(widths)]
    pol = _policy_with(rates)
    sel = pol.select(jobs, n_cpus=4)
    width_of = {j.app_id: j.width for j in jobs}
    assert sum(width_of[a] for a in sel.app_ids) <= 4


@given(_widths, _rates)
@settings(max_examples=300, deadline=None)
def test_no_duplicate_selection(widths, rates):
    jobs = [JobView(i + 1, w) for i, w in enumerate(widths)]
    sel = _policy_with(rates).select(jobs, n_cpus=4)
    assert len(sel.app_ids) == len(set(sel.app_ids))


@given(_widths, _rates)
@settings(max_examples=300, deadline=None)
def test_head_rule(widths, rates):
    jobs = [JobView(i + 1, w) for i, w in enumerate(widths)]
    sel = _policy_with(rates).select(jobs, n_cpus=4)
    fitting = [j.app_id for j in jobs if j.width <= 4]
    if fitting:
        assert sel.app_ids and sel.app_ids[0] == fitting[0]


@given(_widths, _rates)
@settings(max_examples=300, deadline=None)
def test_maximality_no_fitting_job_left_out_of_free_cpus(widths, rates):
    # The traversal loop must keep allocating while any unchosen job fits.
    jobs = [JobView(i + 1, w) for i, w in enumerate(widths)]
    sel = _policy_with(rates).select(jobs, n_cpus=4)
    width_of = {j.app_id: j.width for j in jobs}
    free = 4 - sum(width_of[a] for a in sel.app_ids)
    for job in jobs:
        if job.app_id not in sel.app_ids:
            assert job.width > free


@given(st.lists(st.integers(min_value=1, max_value=10), min_size=2, max_size=6, unique=True))
@settings(max_examples=100, deadline=None)
def test_rotation_plus_head_rule_prevents_starvation(app_ids):
    # Simulate the manager's rotation: head runs, then moves to the back.
    # Every app must be selected within len(apps) quanta.
    pol = LatestQuantumPolicy()
    for app in app_ids:
        pol.on_quantum(app, 23.6)  # worst case: all look saturating
    order = list(app_ids)
    seen = set()
    for _ in range(len(order)):
        jobs = [JobView(a, 4) for a in order]  # full-width: only head runs
        sel = pol.select(jobs, n_cpus=4)
        seen.update(sel.app_ids)
        ran = [a for a in order if a in sel.app_ids]
        order = [a for a in order if a not in sel.app_ids] + ran
    assert seen == set(app_ids)
