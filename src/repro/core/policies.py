"""The scheduling policies: Latest Quantum, Quanta Window, and extensions.

Both paper policies share one selection algorithm (Section 4) and differ
only in how they estimate each application's per-thread bus bandwidth
(BBW/thread):

* **Latest Quantum** — the rate measured over the most recent quantum the
  application actually ran.
* **Quanta Window** — the average of the last *W* published samples
  (paper: W = 5, two samples per quantum), trading responsiveness for
  robustness to bursts.

The selection algorithm, per quantum:

1. The application at the **head of the circular list** is allocated
   unconditionally — every job eventually reaches the head, so no job
   starves regardless of its bandwidth profile.
2. While unallocated processors remain, compute the available bus
   bandwidth per unallocated processor::

       ABBW/proc = (bus_capacity − Σ allocated BBW) / unallocated_cpus

   traverse the list, score every job that fits with
   ``fitness = 1000 / (1 + |ABBW/proc − BBW/thread|)`` (Equation 1), and
   allocate the fittest; repeat.

Under saturation ABBW/proc goes negative and the lowest-BBW job becomes the
fittest — the graceful degradation the paper highlights.

One extension, from the paper's future-work directions, is run by the
estimator ablation (ABL-W):

* :class:`EwmaPolicy` — exponentially-weighted estimate (the paper's
  suggested technique for wider windows).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..errors import SchedulingError
from .fitness import FitnessFn, paper_fitness
from .window import EwmaEstimator, MovingWindow

__all__ = [
    "JobView",
    "Selection",
    "BandwidthPolicy",
    "LatestQuantumPolicy",
    "QuantaWindowPolicy",
    "EwmaPolicy",
    "head_first_selection",
]


@dataclass(frozen=True)
class JobView:
    """What the policy sees of one schedulable application.

    Attributes
    ----------
    app_id:
        Application instance id.
    width:
        Processors needed (list of live threads; gang all-or-nothing).
    """

    app_id: int
    width: int


@dataclass(frozen=True)
class Selection:
    """Outcome of one quantum's selection.

    Attributes
    ----------
    app_ids:
        Selected applications, in allocation order (head first).
    abbw_trace:
        The ABBW/proc value observed before each post-head allocation —
        exposed for tests and the reporting harness.
    """

    app_ids: tuple[int, ...]
    abbw_trace: tuple[float, ...]


def head_first_selection(jobs: list[JobView], n_cpus: int) -> Selection:
    """Bandwidth-agnostic first-fit selection in circular-list order.

    Keeps the structural guarantees of the paper's algorithm — the head
    of the list runs whenever it fits, no application is selected twice,
    the gang widths fit in ``n_cpus`` — but ignores bandwidth estimates
    entirely. This is the hardened manager's last-resort degradation mode
    when *every* application's estimate is stale: rotation alone still
    guarantees freedom from starvation (Section 4's circular-list
    argument needs no bandwidth information).
    """
    if n_cpus < 1:
        raise SchedulingError("need at least one CPU")
    chosen: list[int] = []
    free = n_cpus
    for job in jobs:
        if job.width > n_cpus:
            raise SchedulingError(
                f"application {job.app_id} needs {job.width} CPUs on an "
                f"{n_cpus}-CPU machine; gang policies cannot ever run it"
            )
        if job.width <= free:
            chosen.append(job.app_id)
            free -= job.width
    return Selection(app_ids=tuple(chosen), abbw_trace=())


class BandwidthPolicy(ABC):
    """Shared selection machinery; subclasses define the estimator.

    Parameters
    ----------
    bus_capacity_txus:
        The manager's belief of total usable bus bandwidth (the STREAM
        measurement on the paper's platform).
    fitness_fn:
        Scoring function (Equation 1 by default; see ABL-F).
    fitness_scale:
        Numerator of Equation 1.
    incremental:
        Inert. Accepted, stored, encoded and hashed so that stored specs
        and their cache keys stay valid, but it selects nothing: there is
        one selection pass (:meth:`select`).
    """

    #: Short name used in reports.
    name: str = "abstract"

    #: Whether the audit oracle can replay this policy's selection from
    #: (jobs, estimates, fitness) alone. Subclasses whose ``select`` is
    #: stateful must set this False.
    oracle_replayable: bool = True

    def __init__(
        self,
        bus_capacity_txus: float = 29.5,
        fitness_fn: FitnessFn | None = None,
        fitness_scale: float = 1000.0,
        incremental: bool = True,
    ) -> None:
        if bus_capacity_txus <= 0:
            raise SchedulingError("bus capacity must be positive")
        self.bus_capacity_txus = bus_capacity_txus
        self._fitness_fn = fitness_fn
        self._fitness_scale = fitness_scale
        self.incremental = incremental
        self._selection_calls = 0

    def fitness(self, abbw_per_proc: float, bbw_per_thread: float) -> float:
        """Score a candidate (Equation 1 unless overridden)."""
        if self._fitness_fn is not None:
            return self._fitness_fn(abbw_per_proc, bbw_per_thread)
        return paper_fitness(abbw_per_proc, bbw_per_thread, self._fitness_scale)

    # -- estimation interface (subclass responsibility) ------------------------

    @abstractmethod
    def estimate(self, app_id: int) -> float | None:
        """Current BBW/thread estimate for an application (None = unknown)."""

    def on_sample(
        self,
        app_id: int,
        rate_per_thread: float,
        saturated: bool = False,
        time_us: float | None = None,
    ) -> None:
        """A new per-sample rate was published to the arena. Default: ignore.

        ``saturated`` marks measurements taken while the whole workload
        consumed (nearly) the full bus capacity: such a rate is only a
        *lower bound* on the job's demand, and estimators must not let it
        lower their estimate (see :class:`repro.config.ManagerConfig`).
        ``time_us``, when given, is the simulated time of the measurement
        and feeds :meth:`last_update_time` for staleness tracking.
        """

    def on_quantum(
        self,
        app_id: int,
        rate_per_thread: float,
        saturated: bool = False,
        time_us: float | None = None,
    ) -> None:
        """A full-quantum rate was computed at a boundary. Default: ignore."""

    def last_update_time(self, app_id: int) -> float | None:
        """When the application's estimate last absorbed a fresh sample.

        ``None`` means never (or the policy keeps no estimator state —
        the default). Only timestamped updates (``time_us`` passed to
        ``on_sample`` / ``on_quantum``) count; the hardened manager uses
        this to decide when an estimate has gone stale without reaching
        into policy internals.
        """
        return None

    def forget(self, app_id: int) -> None:
        """An application disconnected; drop its state. Default: no-op."""

    # -- selection ---------------------------------------------------------------

    def effective_estimate(self, app_id: int) -> float:
        """Estimate with the unknown-app default (0: never measured)."""
        est = self.estimate(app_id)
        return 0.0 if est is None else est

    def selection_profile(self) -> dict[str, float]:
        """Selection-pass counters (merged into ``RunResult.profile``)."""
        return {"selection_calls": float(self._selection_calls)}

    def select(self, jobs: list[JobView], n_cpus: int) -> Selection:
        """Run the paper's selection algorithm over ``jobs`` in list order.

        ``jobs`` must be in circular-list order (head first). Returns the
        selected applications; the caller turns this into signals. Each
        estimate is read once per call, ``allocated_bbw`` is a running
        sum, and each traversal picks the first strict maximum of
        :meth:`fitness` in list order.

        A traversal scores groups, not jobs: jobs with the same estimate
        and width get the same score from a pure fitness function, so each
        group (in list order) is scored once, for its first untaken
        member. The winner is the strict maximum, a tie going to the lower
        list index, which is the job the one-pass scan over every job
        picks. NaN and ``-inf`` scores never win.
        """
        if n_cpus < 1:
            raise SchedulingError("need at least one CPU")
        for job in jobs:
            if job.width > n_cpus:
                raise SchedulingError(
                    f"application {job.app_id} needs {job.width} CPUs on an "
                    f"{n_cpus}-CPU machine; gang policies cannot ever run it"
                )
        self._selection_calls += 1
        ests = [self.effective_estimate(job.app_id) for job in jobs]
        chosen_ids: list[int] = []
        taken: set[int] = set()
        abbw_trace: list[float] = []
        free = n_cpus
        allocated_bbw = 0.0
        # Step 1: head of the list runs by default (no starvation).
        for i, job in enumerate(jobs):
            if job.width <= free:
                chosen_ids.append(job.app_id)
                taken.add(job.app_id)
                free -= job.width
                allocated_bbw += ests[i] * job.width
                break
        # Step 2: fitness-driven traversals over (estimate, width) groups.
        # A group is [estimate, width, member indices, first untaken
        # position]; a zero estimate keys on its sign too, so a fitness
        # that tells -0.0 from 0.0 still sees one value per group.
        by_key: dict[tuple, list] = {}
        for i, job in enumerate(jobs):
            est = ests[i]
            key = (est, job.width) if est else (est, job.width, math.copysign(1.0, est))
            group = by_key.get(key)
            if group is None:
                by_key[key] = [est, job.width, [i], 0]
            else:
                group[2].append(i)
        groups = list(by_key.values())
        while free > 0 and groups:
            abbw_per_proc = (self.bus_capacity_txus - allocated_bbw) / free
            best_idx = -1
            best_score = -math.inf
            live = []
            for group in groups:
                members = group[2]
                pos = group[3]
                while pos < len(members) and jobs[members[pos]].app_id in taken:
                    pos += 1
                if pos == len(members):
                    continue  # every member taken: drop the group
                group[3] = pos
                live.append(group)
                if group[1] > free:
                    continue
                score = self.fitness(abbw_per_proc, group[0])
                i = members[pos]
                if score > best_score or (score == best_score and 0 <= i < best_idx):
                    best_score = score
                    best_idx = i
            groups = live
            if best_idx < 0:
                break
            best = jobs[best_idx]
            abbw_trace.append(abbw_per_proc)
            chosen_ids.append(best.app_id)
            taken.add(best.app_id)
            free -= best.width
            allocated_bbw += ests[best_idx] * best.width
        return Selection(app_ids=tuple(chosen_ids), abbw_trace=tuple(abbw_trace))


class LatestQuantumPolicy(BandwidthPolicy):
    """BBW/thread = the rate over the latest quantum the job ran (Eq. 1)."""

    name = "latest-quantum"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._last: dict[int, float] = {}
        self._updated: dict[int, float] = {}

    def on_quantum(
        self,
        app_id: int,
        rate_per_thread: float,
        saturated: bool = False,
        time_us: float | None = None,
    ) -> None:
        if time_us is not None:
            self._updated[app_id] = time_us
        current = self._last.get(app_id)
        if saturated and current is not None and rate_per_thread < current:
            return  # lower bound only: keep the higher previous estimate
        self._last[app_id] = rate_per_thread

    def estimate(self, app_id: int) -> float | None:
        return self._last.get(app_id)

    def last_update_time(self, app_id: int) -> float | None:
        return self._updated.get(app_id)

    def forget(self, app_id: int) -> None:
        self._last.pop(app_id, None)
        self._updated.pop(app_id, None)


class QuantaWindowPolicy(BandwidthPolicy):
    """BBW/thread = moving average over the last W samples (Eq. 2).

    Parameters
    ----------
    window_length:
        Number of samples averaged (paper: 5; two samples per quantum).
    """

    name = "quanta-window"

    def __init__(self, window_length: int = 5, **kwargs) -> None:
        super().__init__(**kwargs)
        if window_length < 1:
            raise SchedulingError("window length must be >= 1")
        self.window_length = window_length
        self._windows: dict[int, MovingWindow] = {}

    def on_sample(
        self,
        app_id: int,
        rate_per_thread: float,
        saturated: bool = False,
        time_us: float | None = None,
    ) -> None:
        window = self._windows.setdefault(app_id, MovingWindow(self.window_length))
        current = window.average()
        if saturated and current is not None and rate_per_thread < current:
            # Lower bound only: re-push the current average so the window
            # keeps sliding without dragging the estimate down.
            window.push(current, time_us=time_us)
            return
        window.push(rate_per_thread, time_us=time_us)

    def estimate(self, app_id: int) -> float | None:
        w = self._windows.get(app_id)
        return None if w is None else w.average()

    def last_update_time(self, app_id: int) -> float | None:
        w = self._windows.get(app_id)
        return None if w is None else w.last_update_time

    def peak_estimate(self, app_id: int) -> float | None:
        """Largest sample in the window (conservative demand bound)."""
        w = self._windows.get(app_id)
        return None if w is None else w.maximum()

    def forget(self, app_id: int) -> None:
        self._windows.pop(app_id, None)


class EwmaPolicy(BandwidthPolicy):
    """BBW/thread = exponentially-weighted sample average (paper extension).

    Parameters
    ----------
    alpha:
        Newest-sample weight in (0, 1]. ``alpha = 2/(W+1)`` roughly
        corresponds to a W-sample window.
    """

    name = "ewma"

    def __init__(self, alpha: float = 1.0 / 3.0, **kwargs) -> None:
        super().__init__(**kwargs)
        self.alpha = alpha
        self._estimates: dict[int, EwmaEstimator] = {}

    def on_sample(
        self,
        app_id: int,
        rate_per_thread: float,
        saturated: bool = False,
        time_us: float | None = None,
    ) -> None:
        est = self._estimates.setdefault(app_id, EwmaEstimator(self.alpha))
        current = est.average()
        if saturated and current is not None and rate_per_thread < current:
            if time_us is not None and current is not None:
                est.push(current, time_us=time_us)  # refresh timestamp only
            return  # lower bound only
        est.push(rate_per_thread, time_us=time_us)

    def estimate(self, app_id: int) -> float | None:
        e = self._estimates.get(app_id)
        return None if e is None else e.average()

    def last_update_time(self, app_id: int) -> float | None:
        e = self._estimates.get(app_id)
        return None if e is None else e.last_update_time

    def forget(self, app_id: int) -> None:
        self._estimates.pop(app_id, None)
