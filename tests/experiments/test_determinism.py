"""Regression tests: parallel execution is bit-identical to serial.

The acceptance bar for the fan-out layer is exact equality — the same
floats, the same orderings, the same dataclasses — between ``jobs=1`` and
``jobs=N``, and between repeated invocations. Anything process-dependent
(global instance counters, set iteration order) would show up here.
"""

from repro.config import ManagerConfig
from repro.experiments.base import SimulationSpec, run_simulation
from repro.experiments.fig2 import _background, default_policies, run_fig2
from repro.parallel import run_many
from repro.workloads.suites import PAPER_APPS
from tests.test_parallel import _specs

_KW = dict(work_scale=0.05, apps=["Barnes", "CG"], seed=7)


class TestFig2Determinism:
    def test_parallel_bit_identical_to_serial(self):
        serial = run_fig2("A", jobs=1, **_KW)
        parallel = run_fig2("A", jobs=4, **_KW)
        assert serial == parallel  # frozen dataclasses: exact float equality
        for s_row, p_row in zip(serial, parallel):
            assert s_row.linux_turnaround_us == p_row.linux_turnaround_us
            for s_cell, p_cell in zip(s_row.cells, p_row.cells):
                assert s_cell.turnaround_us == p_cell.turnaround_us
                assert s_cell.improvement_percent == p_cell.improvement_percent

    def test_repeated_parallel_runs_identical(self):
        first = run_fig2("A", jobs=4, **_KW)
        second = run_fig2("A", jobs=4, **_KW)
        assert first == second


class TestRunResultDeterminism:
    def test_full_run_results_identical_including_ids(self):
        specs = _specs(3)
        serial = run_many(specs, jobs=1)
        parallel = run_many(specs, jobs=3)
        for s, p in zip(serial, parallel):
            assert s == p
            assert [a.app_id for a in s.apps] == [a.app_id for a in p.apps]
            assert s.target_names == p.target_names
            assert s.bus_solve_calls == p.bus_solve_calls
            assert s.bus_cache_hits == p.bus_cache_hits

    def test_same_spec_run_twice_gives_equal_results(self):
        # The policy instance inside a spec learns during a run; reusing
        # the spec must not carry that state into the next run.
        app = PAPER_APPS["CG"].scaled(0.1)
        for policy in default_policies(ManagerConfig()):
            spec = SimulationSpec(
                targets=[app, app], background=_background("A"),
                scheduler=policy, seed=42,
            )
            first = run_simulation(spec)
            assert run_simulation(spec) == first
