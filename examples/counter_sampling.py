#!/usr/bin/env python3
"""Reading performance counters the way the paper's runtime does.

Demonstrates the low-level monitoring stack: read each thread's
virtualized counters (the machine's ``CounterBank``, which models the
``perfctr`` driver the paper uses) twice per 200 ms quantum while a bursty
application runs next to a streaming antagonist, and print the live
per-thread bandwidth trace — the exact signal the CPU manager's policies
consume from the shared arena.

Usage::

    python examples/counter_sampling.py
"""

from repro import Engine, Machine, MachineConfig
from repro.sim.events import EventPriority
from repro.workloads import bbma_spec, paper_app
from repro.workloads.base import Application
from repro.rng import RngRegistry


def main() -> None:
    engine = Engine()
    machine = Machine(MachineConfig(), engine)
    rng = RngRegistry(seed=7)

    raytrace = Application.launch(paper_app("Raytrace").scaled(0.15), machine, rng.stream("rt"))
    bbma = Application.launch(bbma_spec(), machine, rng.stream("bbma"))

    # pin: Raytrace on CPUs 0-1, BBMA on CPU 2 (CPU 3 idle)
    machine.dispatch(0, raytrace.tids[0])
    machine.dispatch(1, raytrace.tids[1])
    machine.dispatch(2, bbma.tids[0])

    tids = raytrace.tids + bbma.tids
    previous = {tid: machine.counters.read(tid) for tid in tids}

    sample_period = 100_000.0  # twice per 200 ms quantum, as in the paper
    print(f"{'t (ms)':>7s}" + "".join(f"{name:>14s}" for name in
          ["raytrace.t0", "raytrace.t1", "bbma", "bus util"]))

    def sample() -> None:
        nonlocal previous
        row = f"{engine.now / 1e3:7.0f}"
        for tid in tids:
            now_reading = machine.counters.read(tid)
            prev = previous[tid]
            dt = now_reading.cycles_us - prev.cycles_us
            rate = (now_reading.bus_transactions - prev.bus_transactions) / dt if dt > 0 else 0.0
            previous[tid] = now_reading
            row += f"{rate:11.2f} tx"
        row += f"{machine.bus_utilisation:13.0%}"
        print(row)
        if not raytrace.finished:
            engine.schedule_after(sample_period, sample, priority=EventPriority.SAMPLE)

    engine.schedule_after(sample_period, sample, priority=EventPriority.SAMPLE)
    engine.run(advancer=machine, stop=lambda: raytrace.finished, max_time=1e9)

    total = machine.counters.read_many(raytrace.tids)
    print()
    print(f"Raytrace finished at {engine.now / 1e3:.0f} ms; issued "
          f"{total.bus_transactions / 1e3:.0f}k bus transactions over "
          f"{total.cycles_us / 1e3:.0f} ms of CPU time "
          f"({total.bus_transactions / total.cycles_us:.2f} tx/us). ")
    print("The per-sample rates above alternate with Raytrace's burst phases —")
    print("exactly the irregularity that misleads the Latest Quantum policy and")
    print("motivates the paper's 5-sample Quanta Window.")


if __name__ == "__main__":
    main()
