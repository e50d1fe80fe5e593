"""Scheduler interface and shared plumbing.

A :class:`KernelScheduler` owns CPU dispatch decisions for one machine. Its
life cycle:

1. construct with its configuration,
2. :meth:`attach` to a machine/engine (wires exit and block listeners),
3. :meth:`start` — perform the initial dispatch and schedule periodic
   events,
4. react to callbacks until the simulation ends.

Schedulers never manipulate CPUs directly; all placement goes through
:meth:`repro.hw.machine.Machine.dispatch`, which enforces placement
invariants (no blocked/finished threads, one CPU per thread).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SchedulingError
from ..sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.machine import Machine, ThreadState

__all__ = ["KernelScheduler"]


class KernelScheduler(ABC):
    """Base class for kernel-level schedulers.

    Subclasses implement :meth:`start` and the reaction callbacks; the base
    class provides attachment plumbing and common helpers.
    """

    def __init__(self) -> None:
        self._machine: "Machine | None" = None
        self._engine: Engine | None = None
        self._rng: np.random.Generator | None = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, machine: "Machine", engine: Engine, rng: np.random.Generator) -> None:
        """Bind the scheduler to a machine and engine.

        Wires the machine's exit listener to :meth:`on_thread_exit`. May be
        called exactly once.
        """
        if self._machine is not None:
            raise SchedulingError("scheduler already attached")
        self._machine = machine
        self._engine = engine
        self._rng = rng
        machine.add_exit_listener(self._handle_exit)
        machine.add_io_listener(self._handle_io)

    @property
    def machine(self) -> "Machine":
        """The attached machine (raises if unattached)."""
        if self._machine is None:
            raise SchedulingError("scheduler not attached to a machine")
        return self._machine

    @property
    def engine(self) -> Engine:
        """The attached engine (raises if unattached)."""
        if self._engine is None:
            raise SchedulingError("scheduler not attached to an engine")
        return self._engine

    @property
    def rng(self) -> np.random.Generator:
        """The scheduler's random stream (raises if unattached)."""
        if self._rng is None:
            raise SchedulingError("scheduler not attached")
        return self._rng

    def _handle_exit(self, thread: "ThreadState") -> None:
        # Exit listeners fire while the machine is mid-settle; defer the
        # actual rescheduling to a same-instant engine event so the
        # machine/engine clocks are consistent when we dispatch.
        self.engine.schedule_at(
            self.machine.now, lambda: self.on_thread_exit(thread), priority=45
        )

    def _handle_io(self, thread: "ThreadState", asleep: bool) -> None:
        # Same deferral as exits: I/O sleep events fire mid-settle.
        self.engine.schedule_at(
            self.machine.now, lambda: self.on_io_change(thread, asleep), priority=45
        )

    # -- subclass API ---------------------------------------------------------

    @abstractmethod
    def start(self) -> None:
        """Perform the initial dispatch and schedule periodic events."""

    def on_thread_exit(self, thread: "ThreadState") -> None:
        """A thread completed; its CPU is already free. Default: no-op."""

    def on_block_change(self, tid: int, blocked: bool) -> None:
        """A thread's blocked flag changed (CPU-manager signals). Default: no-op."""

    def on_io_change(self, thread: "ThreadState", asleep: bool) -> None:
        """A thread started or finished an I/O sleep. Default: no-op."""

    def on_new_threads(self) -> None:
        """New threads were registered after start (dynamic arrivals).

        Default: no-op. Time-sharing schedulers restart their tick loop
        and fill idle CPUs.
        """

    # -- helpers ---------------------------------------------------------------

    def idle_cpus(self) -> list[int]:
        """Ids of currently idle CPUs, ascending."""
        return [c.cpu_id for c in self.machine.cpus if c.idle]
