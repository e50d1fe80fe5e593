"""Unit tests for ApplicationSpec / Application."""

import numpy as np
import pytest

from repro.config import MachineConfig
from repro.errors import WorkloadError
from repro.hw.machine import Machine
from repro.sim.engine import Engine
from repro.workloads.base import Application, ApplicationSpec
from repro.workloads.patterns import ConstantPattern


def _spec(**kw):
    defaults = dict(
        name="app",
        n_threads=2,
        work_per_thread_us=1000.0,
        pattern=ConstantPattern(2.0),
    )
    defaults.update(kw)
    return ApplicationSpec(**defaults)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"n_threads": 0},
            {"work_per_thread_us": 0.0},
            {"footprint_lines": -1.0},
            {"migration_sensitivity": -1.0},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(WorkloadError):
            _spec(**kw)

    def test_scaled(self):
        assert _spec().scaled(0.5).work_per_thread_us == 500.0
        with pytest.raises(WorkloadError):
            _spec().scaled(0.0)

    def test_scaled_preserves_other_fields(self):
        s = _spec(migration_sensitivity=2.0).scaled(2.0)
        assert s.migration_sensitivity == 2.0
        assert s.pattern.mean_rate() == 2.0


class TestApplicationLaunch:
    def test_launch_registers_threads(self):
        machine = Machine(MachineConfig(), Engine())
        app = Application.launch(_spec(), machine, np.random.default_rng(0))
        assert len(app.threads) == 2
        assert set(app.tids) <= set(machine.counters.threads())
        assert all(t.app_id == app.app_id for t in app.threads)

    def test_instance_ids_unique(self):
        machine = Machine(MachineConfig(), Engine())
        a = Application.launch(_spec(), machine, np.random.default_rng(0))
        b = Application.launch(_spec(), machine, np.random.default_rng(1))
        assert a.app_id != b.app_id

    def test_turnaround_none_until_finished(self):
        machine = Machine(MachineConfig(), Engine())
        app = Application.launch(_spec(), machine, np.random.default_rng(0))
        assert not app.finished
        assert app.turnaround_us is None

    def test_turnaround_is_last_thread_completion(self):
        engine = Engine()
        machine = Machine(MachineConfig(), engine)
        app = Application.launch(_spec(footprint_lines=0.0), machine, np.random.default_rng(0))
        machine.dispatch(0, app.tids[0])
        machine.dispatch(1, app.tids[1])
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e8)
        assert app.finished
        assert app.turnaround_us == max(t.finished_at for t in app.threads)

    def test_blocked_reflects_threads(self):
        machine = Machine(MachineConfig(), Engine())
        app = Application.launch(_spec(), machine, np.random.default_rng(0))
        assert not app.blocked()
        machine.set_blocked(app.tids[0], True)
        assert app.blocked()

    def test_name_property(self):
        machine = Machine(MachineConfig(), Engine())
        app = Application.launch(_spec(name="CG"), machine, np.random.default_rng(0))
        assert app.name == "CG"
        assert app.n_threads == 2
