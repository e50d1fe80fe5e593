"""Kernel-level schedulers.

* :mod:`repro.sched.base` — the scheduler interface and shared plumbing.
* :mod:`repro.sched.dedicated` — static pinning, no time sharing (the
  Section 3 / Figure 1 configurations).
* :mod:`repro.sched.linux` — a Linux 2.4-like O(n) epoch scheduler with
  dynamic priorities and cache-affinity goodness bonus: the paper's
  baseline, and the substrate the user-level CPU manager runs on top of.
* :mod:`repro.sched.linux_o1` — a Linux 2.6 O(1)-style scheduler (the
  ``"linux26"`` baseline and alternative manager substrate).
"""

from .base import KernelScheduler
from .dedicated import DedicatedScheduler
from .linux import LinuxScheduler
from .linux_o1 import LinuxO1Scheduler, O1SchedConfig

__all__ = [
    "KernelScheduler",
    "DedicatedScheduler",
    "LinuxScheduler",
    "LinuxO1Scheduler",
    "O1SchedConfig",
]
