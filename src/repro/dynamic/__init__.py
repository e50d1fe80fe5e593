"""Open-system dynamic workloads: arrivals, admission, lifecycle, metrics.

The paper evaluates its schedulers on closed workloads — a fixed set of
co-scheduled applications run to completion. This package adds the open
system: jobs arrive over time (:mod:`~repro.dynamic.arrivals`), queue for
admission and churn through the CPU manager mid-simulation
(:mod:`~repro.dynamic.driver`), and are summarized with steady-state
queueing metrics (:mod:`repro.metrics.queueing`). Each arrival draws its
application from a :class:`JobMix` palette: equal weights, or Zipf-skewed
with :class:`ZipfianMix`. Attach a
:class:`DynamicWorkload` to a :class:`~repro.experiments.base.SimulationSpec`
to drive one through the standard harness.
"""

from .arrivals import (
    ArrivalProcess,
    DiurnalShape,
    FlashCrowdShape,
    MMPPBurstyArrivals,
    PoissonArrivals,
    RateShape,
    ShapedArrivals,
    TraceArrivals,
)
from .config import (
    DynamicWorkload,
    JobMix,
    ZipfianMix,
    paper_mix,
)
from .driver import OpenSystemDriver

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPBurstyArrivals",
    "TraceArrivals",
    "RateShape",
    "DiurnalShape",
    "FlashCrowdShape",
    "ShapedArrivals",
    "JobMix",
    "ZipfianMix",
    "paper_mix",
    "DynamicWorkload",
    "OpenSystemDriver",
]
