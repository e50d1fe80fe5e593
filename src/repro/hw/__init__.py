"""Hardware substrate: the simulated SMP.

Subsystems
----------
* :mod:`repro.hw.bus` — the shared front-side bus: an analytic contention
  model that turns a set of per-thread demand rates into per-thread
  execution speeds and actual transaction rates.
* :mod:`repro.hw.cache` — per-CPU L2 warmth tracking, eviction by
  co-runners, rebuild debt after migrations.
* :mod:`repro.hw.cpu` — processor bookkeeping (running thread, idle time,
  dispatch/context-switch accounting).
* :mod:`repro.hw.counters` — monotone per-thread performance-monitoring
  counters (bus transactions, cycles).
* :mod:`repro.hw.machine` — the assembled machine: settles thread progress
  over time intervals using the bus and cache models (the engine's
  :class:`~repro.sim.engine.Advancer`).
* :mod:`repro.hw.store` — the struct-of-arrays backing store for
  per-thread scalars; :class:`~repro.hw.machine.ThreadState` is a view
  over one of its rows.
"""

from .bus import BusModel, BusRequest, BusSolution, ThreadGrant
from .counters import CounterBank, CounterSnapshot
from .cpu import Cpu
from .machine import Machine, ThreadState
from .store import ThreadStore

__all__ = [
    "BusModel",
    "BusRequest",
    "BusSolution",
    "ThreadGrant",
    "CounterBank",
    "CounterSnapshot",
    "Cpu",
    "Machine",
    "ThreadState",
    "ThreadStore",
]
