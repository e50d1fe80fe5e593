"""A plain round-robin gang scheduler (bandwidth-oblivious baseline).

The paper's policies are "gang-like": an application gets processors only
if *all* its threads fit, and whole applications rotate through quanta.
This scheduler isolates the gang structure from the bandwidth awareness: it
rotates the job list FCFS every quantum, packing jobs first-fit until the
CPUs are full, with no knowledge of bus demand. Comparing it against the
Latest Quantum / Quanta Window policies separates "gang scheduling helps"
from "bandwidth awareness helps" — an ablation the paper discusses
qualitatively (gang-ness guarantees at least two low-bandwidth threads run
together) but does not isolate.
"""

from __future__ import annotations

from collections import deque

from ..errors import SchedulingError
from ..sim.events import EventPriority
from ..units import ms
from .base import Job, KernelScheduler

__all__ = ["RoundRobinGangScheduler"]


class RoundRobinGangScheduler(KernelScheduler):
    """Rotate gang jobs FCFS through fixed quanta, first-fit packing.

    Parameters
    ----------
    jobs:
        Gang job list (see :func:`repro.sched.base.jobs_from_apps`).
    quantum_us:
        Gang quantum length (defaults to the paper's manager quantum).
    """

    def __init__(self, jobs: list[Job], quantum_us: float = ms(200)) -> None:
        super().__init__()
        if quantum_us <= 0:
            raise SchedulingError("quantum must be positive")
        self._jobs = deque(jobs)
        self._quantum = quantum_us

    def start(self) -> None:
        """Validate widths, run the first quantum, start the timer."""
        n = self.machine.n_cpus
        for job in self._jobs:
            if job.width > n:
                raise SchedulingError(
                    f"job {job.name} needs {job.width} CPUs but the machine has {n}"
                )
        self._quantum_boundary()

    def _quantum_boundary(self) -> None:
        machine = self.machine
        if machine.all_finished():
            return
        # Rotate: jobs that just ran go to the back (paper list semantics).
        running_apps = {
            machine.thread(tid).app_id for tid in machine.running_tids()
        }
        rotated = deque()
        moved_back = []
        for job in self._jobs:
            if job.app_id in running_apps:
                moved_back.append(job)
            else:
                rotated.append(job)
        rotated.extend(moved_back)
        self._jobs = rotated

        # First-fit packing over the rotated list.
        selected: list[Job] = []
        free = machine.n_cpus
        for job in self._jobs:
            if any(machine.thread(t).finished for t in job.tids):
                live = [t for t in job.tids if not machine.thread(t).finished]
                if not live:
                    continue
                job = Job(job.app_id, job.name, live)
            if job.width <= free:
                selected.append(job)
                free -= job.width
            if free == 0:
                break
        self._dispatch_selection(selected)
        machine.trace.record(
            machine.now, "gang.quantum", jobs=[j.name for j in selected]
        )
        self.engine.schedule_after(
            self._quantum, self._quantum_boundary, priority=EventPriority.KERNEL
        )

    def _dispatch_selection(self, selected: list[Job]) -> None:
        machine = self.machine
        wanted: list[int] = [tid for job in selected for tid in job.tids]
        wanted_set = set(wanted)
        # Preempt everything not selected.
        for cpu in machine.cpus:
            if cpu.tid is not None and cpu.tid not in wanted_set:
                machine.dispatch(cpu.cpu_id, None)
        # Place newcomers, preferring each thread's previous CPU.
        placed = {cpu.tid for cpu in machine.cpus if cpu.tid is not None}
        free_cpus = deque(c.cpu_id for c in machine.cpus if c.idle)
        pending = [tid for tid in wanted if tid not in placed]
        # Affinity pass.
        remaining = []
        for tid in pending:
            last = machine.thread(tid).last_cpu
            if last is not None and last in free_cpus:
                free_cpus.remove(last)
                machine.dispatch(last, tid)
            else:
                remaining.append(tid)
        for tid in remaining:
            if not free_cpus:
                raise SchedulingError("gang packing overflow (internal bug)")
            machine.dispatch(free_cpus.popleft(), tid)

    def on_io_change(self, thread, asleep: bool) -> None:
        """A woken thread of a currently-running gang takes an idle CPU."""
        if asleep or not thread.runnable or thread.cpu is not None:
            return
        machine = self.machine
        running_apps = {machine.thread(t).app_id for t in machine.running_tids()}
        idle = self.idle_cpus()
        if idle and thread.app_id in running_apps:
            machine.dispatch(idle[0], thread.tid)

    def on_thread_exit(self, thread) -> None:
        """Backfill freed CPUs mid-quantum with the next fitting job."""
        machine = self.machine
        if machine.all_finished():
            return
        free = len(self.idle_cpus())
        if free == 0:
            return
        running_apps = {machine.thread(tid).app_id for tid in machine.running_tids()}
        extra: list[Job] = []
        for job in self._jobs:
            if job.app_id in running_apps:
                continue
            live = [t for t in job.tids if machine.thread(t).runnable and machine.thread(t).cpu is None]
            if live and len(live) == sum(1 for t in job.tids if not machine.thread(t).finished) and len(live) <= free:
                extra.append(Job(job.app_id, job.name, live))
                free -= len(live)
                running_apps.add(job.app_id)
            if free == 0:
                break
        if extra:
            free_cpus = deque(self.idle_cpus())
            for job in extra:
                for tid in job.tids:
                    machine.dispatch(free_cpus.popleft(), tid)
