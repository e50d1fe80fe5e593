"""Analytic throughput prediction: the paper's model-driven direction.

The paper's conclusions propose deriving "analytic or empirical models of
the effect of sharing resources such as the bus ... on the performance of
multiprogrammed SMPs" and using them to "re-formulate the multiprocessor
scheduling problem as a multi-parametric optimization problem". This
module is that model: given the *measured* per-thread bandwidth estimates
the CPU manager already collects, it predicts the aggregate useful
progress of any candidate co-schedule using the same contention physics
the machine implements (shared equilibrium latency, capacity-conserving
saturation).

The predictor deliberately re-derives the equations instead of importing
:mod:`repro.hw.bus`: a real deployment would fit these parameters from
counter measurements, not read them out of the simulator. The default
constants match the paper platform's calibration.

Used by :class:`repro.core.policies_model.ModelDrivenPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["ContentionModel", "GangPrediction"]


@dataclass(frozen=True)
class GangPrediction:
    """Predicted outcome of co-scheduling a set of threads.

    Attributes
    ----------
    speeds:
        Predicted execution speed per thread (solo = 1.0), request order.
    throughput_txus:
        Predicted aggregate bus transaction rate.
    progress:
        Sum of predicted speeds — the objective the model-driven policy
        maximizes (useful work per wall second across the machine).
    saturated:
        Whether the candidate saturates the bus.
    """

    speeds: tuple[float, ...]
    throughput_txus: float
    progress: float
    saturated: bool


class ContentionModel:
    """Analytic bus-sharing model over measured per-thread rates.

    Parameters
    ----------
    capacity_txus:
        Sustained bus capacity (the manager's STREAM belief).
    streaming_rate_txus:
        The back-to-back streaming ceiling of one thread (BBMA's 23.6 on
        the paper platform); demands at or above it count as fully
        memory-bound.
    mem_exponent:
        Demand → latency-sensitivity exponent (see ``BusConfig``).
    unfairness:
        Arbitration unfairness β (see ``BusConfig``).
    contention_coeff:
        Sub-saturation arbitration coefficient.
    """

    def __init__(
        self,
        capacity_txus: float = 29.5,
        streaming_rate_txus: float = 23.6,
        mem_exponent: float = 0.65,
        unfairness: float = 1.1,
        contention_coeff: float = 0.05,
    ) -> None:
        if capacity_txus <= 0 or streaming_rate_txus <= 0:
            raise ValueError("capacity and streaming rate must be positive")
        if not 0 < mem_exponent <= 1:
            raise ValueError("mem_exponent must be in (0, 1]")
        if unfairness < 0 or contention_coeff < 0:
            raise ValueError("unfairness/contention_coeff must be >= 0")
        self.capacity_txus = capacity_txus
        self.streaming_rate_txus = streaming_rate_txus
        self.mem_exponent = mem_exponent
        self.unfairness = unfairness
        self.contention_coeff = contention_coeff

    # -- pieces -----------------------------------------------------------------

    def mem_fraction(self, rate_txus: float) -> float:
        """Latency-sensitive fraction implied by a demand rate."""
        if rate_txus <= 0:
            return 0.0
        x = rate_txus / self.streaming_rate_txus
        return min(1.0, x**self.mem_exponent)

    def _speed(self, rate: float, lam_mult: float) -> float:
        """Thread speed at base-latency multiplier ``lam_mult`` (λ/λ0)."""
        m = self.mem_fraction(rate)
        if m == 0.0:
            return 1.0
        eff = 1.0 + (lam_mult - 1.0) * (1.0 + self.unfairness * (1.0 - m))
        return 1.0 / ((1.0 - m) + m * eff)

    def _throughput(self, rates: Sequence[float], lam_mult: float) -> float:
        return sum(r * self._speed(r, lam_mult) for r in rates)

    # -- prediction ---------------------------------------------------------------

    def predict(self, rates: Sequence[float]) -> GangPrediction:
        """Predict speeds and throughput for co-scheduled demand rates."""
        rates = [max(0.0, float(r)) for r in rates]
        if not rates:
            return GangPrediction(speeds=(), throughput_txus=0.0, progress=0.0, saturated=False)
        rho = sum(rates) / self.capacity_txus
        lam_c = 1.0 + self.contention_coeff * rho * rho
        if self._throughput(rates, lam_c) <= self.capacity_txus:
            speeds = tuple(self._speed(r, lam_c) for r in rates)
            tput = sum(r * s for r, s in zip(rates, speeds))
            return GangPrediction(speeds, tput, sum(speeds), saturated=False)
        lo, hi = lam_c, lam_c * 2.0
        for _ in range(100):
            if self._throughput(rates, hi) < self.capacity_txus:
                break
            hi *= 2.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if self._throughput(rates, mid) > self.capacity_txus:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)
        speeds = tuple(self._speed(r, lam) for r in rates)
        tput = sum(r * s for r, s in zip(rates, speeds))
        return GangPrediction(speeds, tput, sum(speeds), saturated=True)
