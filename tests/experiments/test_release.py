"""A finished run is freed by reference counting, not by the cyclic GC.

The machine's listeners and the engine's pending events link the
schedulers and the manager back to the machine and the engine, and in
audited runs the signal dispatcher's audit hook links back to the manager.
``SimulationHandle.release`` cuts those links; ``run_simulation`` calls it,
so a run's objects go away as soon as its result is returned. Left to the
cyclic collector, dead runs pile up between full collections and raise
the process's peak memory.
"""

import gc
import weakref
from dataclasses import replace

import pytest

import repro.experiments.base as base
from repro.core.policies import QuantaWindowPolicy
from repro.dynamic.arrivals import PoissonArrivals
from repro.dynamic.config import DynamicWorkload, paper_mix
from repro.experiments.base import SimulationSpec, run_simulation, run_simulation_with_handle
from repro.experiments.faults import REFERENCE_PLAN
from repro.workloads.microbench import bbma_spec, nbbma_spec
from repro.workloads.suites import PAPER_APPS


def _static(scheduler) -> SimulationSpec:
    app = PAPER_APPS["CG"].scaled(0.05)
    return SimulationSpec(
        targets=[app, app], background=[bbma_spec(), nbbma_spec()], scheduler=scheduler
    )


def _open_system() -> SimulationSpec:
    workload = DynamicWorkload(
        arrivals=PoissonArrivals(rate_per_s=5.0),
        mix=paper_mix(work_scale=0.05),
        n_jobs=6,
        max_in_service=4,
    )
    return SimulationSpec(
        targets=[], background=[bbma_spec()], scheduler=QuantaWindowPolicy(), dynamic=workload
    )


@pytest.fixture
def no_gc():
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize(
    "spec",
    [_static("linux"), _static(QuantaWindowPolicy()), _open_system()],
    ids=["linux", "quanta-window", "open-system"],
)
def test_run_simulation_frees_the_run(spec, no_gc, monkeypatch):
    built = []
    build = base._build

    def recording_build(s):
        handle = build(s)
        built.append((weakref.ref(handle.machine), weakref.ref(handle.engine)))
        return handle

    monkeypatch.setattr(base, "_build", recording_build)
    result = run_simulation(spec)
    assert result.makespan_us > 0
    machine, engine = built[0]
    assert machine() is None and engine() is None


@pytest.mark.parametrize(
    "spec",
    [
        replace(_static("linux"), audit=True),
        replace(_static(QuantaWindowPolicy()), audit=True),
        replace(_static(QuantaWindowPolicy()), audit=True, faults=REFERENCE_PLAN),
    ],
    ids=["audited-linux", "audited-quanta-window", "audited-fault-1"],
)
def test_release_frees_audited_runs(spec, no_gc):
    # The periodic audit tick of kernel-only runs and the manager's
    # signal audit hook used to hold the machine in reference cycles.
    result, handle = run_simulation_with_handle(spec)
    assert result.audit is not None and result.audit.violations == ()
    handle.release()
    machine = weakref.ref(handle.machine)
    del handle
    assert machine() is None


def test_release_keeps_the_event_ledger_and_the_results():
    spec = _static(QuantaWindowPolicy())
    result, handle = run_simulation_with_handle(spec)
    engine = handle.engine
    assert engine.pending_events > 0  # the manager's next ticks
    handle.release()
    assert engine.pending_events == 0
    assert engine.pending_events == (
        engine.events_scheduled - engine.events_fired - engine.events_cancelled
    )
    assert handle.target_apps[0].finished
    assert result == run_simulation(spec)
