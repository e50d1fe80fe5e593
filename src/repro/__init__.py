"""repro — bus-bandwidth-aware gang scheduling for SMPs, reproduced.

A faithful, fully-simulated reproduction of *Antonopoulos, Nikolopoulos &
Papatheodorou, "Scheduling Algorithms with Bus Bandwidth Considerations for
SMPs", ICPP 2003*: the Latest Quantum and Quanta Window policies, the
user-level CPU manager (shared arena, signal protocol, circular job list),
a Linux 2.4-like baseline scheduler, and the 4-way Xeon SMP substrate they
ran on — bus contention model, per-CPU caches, performance counters — plus
the full experiment harness regenerating every figure and table.

Quick start
-----------
>>> from repro import SimulationSpec, run_simulation
>>> from repro.workloads import paper_app, bbma_spec
>>> from repro.core import QuantaWindowPolicy
>>> cg = paper_app("CG").scaled(0.1)
>>> spec = SimulationSpec(targets=[cg, cg], background=[bbma_spec()] * 4,
...                       scheduler=QuantaWindowPolicy(), seed=7)
>>> result = run_simulation(spec)
>>> result.mean_target_turnaround_us() > 0
True

See ``examples/`` for complete scenarios and ``python -m repro all`` to
regenerate the paper's evaluation.
"""

_NUMPY_MIN = (1, 24)

try:
    import numpy as _np
except ImportError as _exc:  # pragma: no cover - environment dependent
    raise ImportError(
        "repro requires numpy >= {}.{} for the vectorized bus solver and "
        "settle path (see DESIGN.md, 'Hot path'); install it with "
        "'pip install numpy'".format(*_NUMPY_MIN)
    ) from _exc

_np_version = tuple(int(p) for p in _np.__version__.split(".")[:2])
if _np_version < _NUMPY_MIN:  # pragma: no cover - environment dependent
    raise ImportError(
        "repro requires numpy >= {}.{}, found {} — older releases predate "
        "the strict left-to-right cumsum semantics the bit-identity gates "
        "rely on".format(*_NUMPY_MIN, _np.__version__)
    )
del _np, _np_version

from .config import (
    BusConfig,
    CacheConfig,
    LinuxSchedConfig,
    MachineConfig,
    ManagerConfig,
)
from .core.fitness import paper_fitness
from .core.manager import CpuManager
from .core.model import ContentionModel
from .core.policies import (
    BandwidthPolicy,
    EwmaPolicy,
    LatestQuantumPolicy,
    QuantaWindowPolicy,
)
from .core.policies_model import ModelDrivenPolicy
from .errors import (
    ArenaError,
    ConfigError,
    CounterError,
    ReproError,
    SchedulingError,
    SimulationError,
    WorkloadError,
)
from .experiments.base import SimulationSpec, run_simulation, solo_run
from .hw.machine import Machine
from .metrics.accounting import AppResult, RunResult
from .metrics.stats import improvement_percent, slowdown
from .sim.engine import Engine
from .workloads.base import Application, ApplicationSpec

__version__ = "1.0.0"

__all__ = [
    # configuration
    "BusConfig",
    "CacheConfig",
    "MachineConfig",
    "LinuxSchedConfig",
    "ManagerConfig",
    # policies & manager
    "BandwidthPolicy",
    "LatestQuantumPolicy",
    "QuantaWindowPolicy",
    "EwmaPolicy",
    "ModelDrivenPolicy",
    "ContentionModel",
    "CpuManager",
    "paper_fitness",
    # simulation
    "Engine",
    "Machine",
    "SimulationSpec",
    "run_simulation",
    "solo_run",
    # workloads
    "Application",
    "ApplicationSpec",
    # results
    "AppResult",
    "RunResult",
    "slowdown",
    "improvement_percent",
    # errors
    "ReproError",
    "ConfigError",
    "SimulationError",
    "SchedulingError",
    "ArenaError",
    "CounterError",
    "WorkloadError",
    "__version__",
]
