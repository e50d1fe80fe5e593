"""Simulator micro-benchmarks: the costs underlying every experiment.

Not a paper artefact — these measure the reproduction's own machinery (bus
equilibrium solve, event engine throughput, one full managed simulation) so
regressions in simulator performance are caught alongside result shapes.
"""

import numpy as np

from repro.config import BusConfig, MachineConfig
from repro.core.policies import QuantaWindowPolicy
from repro.experiments.base import SimulationSpec, run_simulation
from repro.hw.bus import BusModel
from repro.sim.engine import Engine
from repro.workloads.microbench import bbma_spec
from repro.workloads.suites import paper_app


def test_bus_solver_saturated(benchmark):
    # Memo off, so every round runs the root finder.
    bus = BusModel(BusConfig(solve_cache_size=0))
    sol = benchmark(bus.solve, [11.6, 11.6, 7.0, 2.0, 23.6, 23.6])
    assert sol.saturated


def test_bus_solver_unsaturated(benchmark):
    bus = BusModel(BusConfig())
    sol = benchmark(bus.solve, [1.0, 2.0, 3.0, 0.5])
    assert not sol.saturated


def test_engine_event_throughput(benchmark):
    def run_10k_events():
        eng = Engine()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                eng.schedule_after(1.0, tick)

        eng.schedule_after(1.0, tick)
        eng.run()
        return count[0]

    assert benchmark(run_10k_events) == 10_000


def test_full_managed_simulation(benchmark):
    """One complete CPU-manager run (the unit of every Figure 2 cell)."""

    def run():
        cg = paper_app("CG").scaled(0.05)
        spec = SimulationSpec(
            targets=[cg, cg],
            background=[bbma_spec()] * 4,
            scheduler=QuantaWindowPolicy(),
            machine=MachineConfig(),
            seed=3,
            trace=False,
        )
        return run_simulation(spec).mean_target_turnaround_us()

    assert benchmark(run) > 0
