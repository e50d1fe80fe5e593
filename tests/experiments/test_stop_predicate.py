"""The engine's stop test against the full walk over every target.

``run_simulation_with_handle`` stops when every target has finished and
nothing is left to arrive. The predicate keeps an index to the first
unfinished target instead of walking every target's threads on each
engine iteration. The reference below is the walk it replaces; a run must
stop at the same event (``events_fired`` equal) with the same result when
targets finish out of list order, when a fault crash finishes a target,
and when arriving jobs append targets.
"""

import pytest

import repro.experiments.base as base
from repro.core.policies import LatestQuantumPolicy, QuantaWindowPolicy
from repro.experiments.base import SimulationSpec, run_simulation_with_handle
from repro.faults.plan import FaultPlan
from repro.workloads.microbench import bbma_spec
from repro.workloads.suites import PAPER_APPS


def _walk_every_target(handle):
    def done() -> bool:
        return (
            handle.pending_arrivals == 0
            and all(app.finished for app in handle.target_apps)
            and (handle.dynamic is None or handle.dynamic.all_done)
        )

    return done


def _both(spec: SimulationSpec):
    result, handle = run_simulation_with_handle(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(base, "_stop_predicate", _walk_every_target)
        ref_result, ref_handle = run_simulation_with_handle(spec)
    return (result, handle), (ref_result, ref_handle)


def _assert_same_stop(spec: SimulationSpec):
    (result, handle), (ref_result, ref_handle) = _both(spec)
    assert handle.engine.events_fired == ref_handle.engine.events_fired
    assert handle.engine.now == ref_handle.engine.now
    assert result == ref_result
    return result, handle


def test_targets_finishing_out_of_list_order():
    long_app = PAPER_APPS["CG"].scaled(0.3)
    short_app = PAPER_APPS["Radiosity"].scaled(0.05)
    spec = SimulationSpec(
        targets=[long_app, short_app, PAPER_APPS["Barnes"].scaled(0.1)],
        background=[bbma_spec()],
        scheduler=QuantaWindowPolicy(),
        seed=3,
    )
    _, handle = _assert_same_stop(spec)
    finish = [max(t.finished_at for t in app.threads) for app in handle.target_apps]
    assert finish != sorted(finish)  # the list order is not the finish order


def test_a_crash_finishing_a_target():
    spec = SimulationSpec(
        targets=[PAPER_APPS["CG"].scaled(0.5), PAPER_APPS["Barnes"].scaled(0.3)],
        background=[bbma_spec() for _ in range(4)],
        scheduler=LatestQuantumPolicy(),
        seed=5,
        faults=FaultPlan(crash_prob=1.0, crash_mean_time_us=200_000.0, targets_immune=False),
    )
    result, handle = _assert_same_stop(spec)
    assert result.faults.apps_crashed > 0
    killed = [
        app for app in handle.target_apps
        if any(t.work_done < t.work_total for t in app.threads)
    ]
    assert killed  # a target ended by the crash, not by completing its work


def test_arrivals_append_targets():
    spec = SimulationSpec(
        targets=[PAPER_APPS["Radiosity"].scaled(0.05)],
        background=[bbma_spec()],
        scheduler=QuantaWindowPolicy(),
        arrivals=[(50_000.0, PAPER_APPS["CG"].scaled(0.1)), (90_000.0, PAPER_APPS["SP"].scaled(0.05))],
        seed=9,
    )
    _, handle = _assert_same_stop(spec)
    assert len(handle.target_apps) == 3
