"""The paper's contribution: bus-bandwidth-aware gang scheduling.

* :mod:`repro.core.fitness` — Equation (1)/(2) fitness metric and the
  alternatives used by the fitness ablation.
* :mod:`repro.core.window` — moving-window and EWMA rate estimators.
* :mod:`repro.core.arena` — the shared arena: per-application descriptors,
  the connection protocol, and the circular application list.
* :mod:`repro.core.signals` — the block/unblock signal protocol with the
  paper's inversion-protection counters.
* :mod:`repro.core.policies` — the Latest Quantum and Quanta Window
  policies (plus the EWMA extension the estimator ablation runs).
* :mod:`repro.core.manager` — the user-level CPU manager event loop that
  ties it all together on top of the kernel scheduler.
"""

from .arena import AppDescriptor, SharedArena
from .fitness import paper_fitness
from .manager import CpuManager
from .model import ContentionModel, GangPrediction
from .policies import (
    BandwidthPolicy,
    EwmaPolicy,
    LatestQuantumPolicy,
    QuantaWindowPolicy,
)
from .policies_model import ModelDrivenPolicy
from .signals import SignalDispatcher
from .window import EwmaEstimator, MovingWindow

__all__ = [
    "AppDescriptor",
    "SharedArena",
    "paper_fitness",
    "CpuManager",
    "BandwidthPolicy",
    "LatestQuantumPolicy",
    "QuantaWindowPolicy",
    "EwmaPolicy",
    "ModelDrivenPolicy",
    "ContentionModel",
    "GangPrediction",
    "SignalDispatcher",
    "MovingWindow",
    "EwmaEstimator",
]
