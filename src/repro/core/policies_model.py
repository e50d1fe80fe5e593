"""The model-driven policy: the paper's proposed next step, implemented.

Instead of scoring candidates one at a time with Equation 1, the
model-driven policy enumerates every feasible *gang set* (subsets of the
job list whose widths fit the machine, always containing the head job so
the paper's no-starvation guarantee is preserved) and picks the set whose
**predicted aggregate progress** — from the analytic contention model of
:mod:`repro.core.model` — is highest. Ties break toward sets appearing
earlier in the circular list (aging).

The objective is **deficit-weighted progress**: each job's predicted
per-thread speed counts proportionally to how long the job has waited
since it last ran. Pure progress maximization would permanently prefer
the cheapest (lowest-contention) threads and starve everything else —
fairness has to be part of the optimization, not a side constraint. With
the weight ``1 + fairness_weight · quanta_since_last_run`` every job's
priority grows linearly while it waits, so service is regular and the
optimizer spends its freedom on *which* combinations run together, which
is exactly the bus-matching decision.

Enumeration is exact and cheap at SMP scale: with ``J`` jobs and 4
processors the number of feasible sets is tiny (≤ 2^J but pruned by
width; the paper's workloads have J = 6 → at most ~40 candidates). For
larger machines a beam search bound is provided.

This policy shares the estimator machinery of Quanta Window (windowed,
saturation-aware samples) — it changes only the *selection* step, so
comparing it against :class:`~repro.core.policies.QuantaWindowPolicy`
isolates the value of whole-set optimization over greedy matching (the
MODEL ablation).
"""

from __future__ import annotations

from itertools import combinations

from ..errors import SchedulingError
from .model import ContentionModel
from .policies import JobView, QuantaWindowPolicy, Selection

__all__ = ["ModelDrivenPolicy"]

#: Safety bound on exact enumeration; above this, beam search kicks in.
_EXACT_JOB_LIMIT = 14


class ModelDrivenPolicy(QuantaWindowPolicy):
    """Whole-set optimization over the analytic contention model.

    Parameters
    ----------
    model:
        The contention model (defaults to the paper-platform calibration;
        a deployment would pass the saturated bus plateau and the
        streaming ceiling its own counters measure).
    window_length:
        Estimator window (inherited Quanta Window machinery).
    idle_penalty:
        Progress charged per idle processor. Zero makes the optimizer
        indifferent to leaving CPUs idle when adding any job would slow
        the incumbents more than the newcomer progresses; a small positive
        value (default 0.05) expresses a mild preference for using the
        hardware.
    fairness_weight:
        Growth rate of a job's priority per quantum waited (see module
        docstring). Zero degenerates to pure instantaneous-progress
        maximization, which starves expensive jobs.
    use_peak:
        Plan against the window's *peak* sample instead of its mean
        (conservative for bursty demand; see :meth:`model_rate`).
    saturation_inflation:
        Demand multiplier applied to jobs whose every measurement so far
        was taken under bus saturation. A saturated measurement reports
        *consumed* bandwidth — ``demand × speed`` with speed well below
        one — so feeding it to the model as if it were demand makes
        saturating combinations look safe (e.g. two CG instances measured
        at 7.4 tx/µs each predict an unsaturated pairing when their true
        demand is 11.7). The inflation approximates ``demand ≈ consumed /
        typical_saturated_speed``; once a job is observed unsaturated its
        estimate is trusted as-is.
    """

    name = "model-driven"

    #: Whole-set optimizer with deficit state mutated inside ``select`` —
    #: intentionally diverges from the greedy fitness rule the oracle replays.
    oracle_replayable = False

    def __init__(
        self,
        model: ContentionModel | None = None,
        idle_penalty: float = 0.05,
        fairness_weight: float = 0.5,
        saturation_inflation: float = 1.5,
        use_peak: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.model = model or ContentionModel(capacity_txus=self.bus_capacity_txus)
        if idle_penalty < 0:
            raise SchedulingError("idle_penalty must be >= 0")
        if fairness_weight < 0:
            raise SchedulingError("fairness_weight must be >= 0")
        if saturation_inflation < 1.0:
            raise SchedulingError("saturation_inflation must be >= 1")
        self.idle_penalty = idle_penalty
        self.fairness_weight = fairness_weight
        self.saturation_inflation = saturation_inflation
        self.use_peak = use_peak
        self._decision = 0
        self._last_ran: dict[int, int] = {}
        self._seen_unsaturated: set[int] = set()

    # ------------------------------------------------------------------

    def on_sample(
        self,
        app_id: int,
        rate_per_thread: float,
        saturated: bool = False,
        time_us: float | None = None,
    ) -> None:
        """Track whether the job was ever measured off a saturated bus."""
        super().on_sample(app_id, rate_per_thread, saturated=saturated, time_us=time_us)
        if not saturated:
            self._seen_unsaturated.add(app_id)

    def model_rate(self, app_id: int) -> float:
        """The demand rate fed to the contention model (see class docs).

        Uses the *peak* of the sample window when ``use_peak`` is set:
        planning against the highest recently observed demand is the
        conservative choice for bursty jobs (their mean understates what
        a co-schedule will face during a burst).
        """
        if self.use_peak:
            rate = self.peak_estimate(app_id)
            rate = 0.0 if rate is None else rate
        else:
            rate = self.effective_estimate(app_id)
        if app_id not in self._seen_unsaturated:
            rate = min(rate * self.saturation_inflation, self.model.streaming_rate_txus)
        return rate

    def _deficit(self, app_id: int) -> int:
        """Quanta since the job last ran (0 if it ran last quantum)."""
        return self._decision - self._last_ran.get(app_id, self._decision)

    def _weight(self, app_id: int) -> float:
        return 1.0 + self.fairness_weight * self._deficit(app_id)

    def _set_objective(self, jobs: list[JobView], n_cpus: int) -> float:
        """Deficit-weighted predicted progress of co-scheduling ``jobs``."""
        rates: list[float] = []
        weights: list[float] = []
        width = 0
        for job in jobs:
            per_thread = self.model_rate(job.app_id)
            w = self._weight(job.app_id)
            rates.extend([per_thread] * job.width)
            weights.extend([w] * job.width)
            width += job.width
        prediction = self.model.predict(rates)
        weighted = sum(w * s for w, s in zip(weights, prediction.speeds))
        return weighted - self.idle_penalty * (n_cpus - width)

    def select(self, jobs: list[JobView], n_cpus: int) -> Selection:
        """Pick the feasible gang set with the best predicted progress."""
        if n_cpus < 1:
            raise SchedulingError("need at least one CPU")
        for job in jobs:
            if job.width > n_cpus:
                raise SchedulingError(
                    f"application {job.app_id} needs {job.width} CPUs on an "
                    f"{n_cpus}-CPU machine; gang policies cannot ever run it"
                )
        if not jobs:
            return Selection(app_ids=(), abbw_trace=())
        # First sighting counts as "ran now" so deficits start at zero and
        # grow from here; without this a never-selected job would never age.
        for job in jobs:
            self._last_ran.setdefault(job.app_id, self._decision)
        # The head job that fits is mandatory (no starvation).
        head_idx = next((i for i, j in enumerate(jobs) if j.width <= n_cpus), None)
        if head_idx is None:
            return Selection(app_ids=(), abbw_trace=())
        head = jobs[head_idx]
        others = [j for i, j in enumerate(jobs) if i != head_idx]
        if len(others) > _EXACT_JOB_LIMIT:
            chosen = self._beam_search(head, others, n_cpus)
        else:
            chosen = self._exhaustive(head, others, n_cpus)
        # Deficit bookkeeping: selected jobs reset; everyone else ages.
        self._decision += 1
        for job in chosen:
            self._last_ran[job.app_id] = self._decision
        return Selection(app_ids=tuple(j.app_id for j in chosen), abbw_trace=())

    def forget(self, app_id: int) -> None:
        """Drop estimator, deficit and saturation state for a disconnected job."""
        super().forget(app_id)
        self._last_ran.pop(app_id, None)
        self._seen_unsaturated.discard(app_id)

    def _exhaustive(
        self, head: JobView, others: list[JobView], n_cpus: int
    ) -> list[JobView]:
        free = n_cpus - head.width
        best_set = [head]
        best_obj = self._set_objective(best_set, n_cpus)
        # Enumerate subsets of the remaining jobs by size; earlier list
        # positions are generated first, so ties keep the aged jobs.
        for size in range(1, len(others) + 1):
            for combo in combinations(others, size):
                if sum(j.width for j in combo) > free:
                    continue
                candidate = [head, *combo]
                obj = self._set_objective(candidate, n_cpus)
                if obj > best_obj + 1e-12:
                    best_obj = obj
                    best_set = candidate
        return best_set

    def _beam_search(
        self, head: JobView, others: list[JobView], n_cpus: int, beam: int = 8
    ) -> list[JobView]:
        """Greedy beam over additions for large job counts."""
        frontier: list[tuple[float, list[JobView]]] = [
            (self._set_objective([head], n_cpus), [head])
        ]
        best_obj, best_set = frontier[0]
        while frontier:
            nxt: list[tuple[float, list[JobView]]] = []
            for obj, chosen in frontier:
                used = sum(j.width for j in chosen)
                ids = {j.app_id for j in chosen}
                for job in others:
                    if job.app_id in ids or used + job.width > n_cpus:
                        continue
                    cand = chosen + [job]
                    cobj = self._set_objective(cand, n_cpus)
                    nxt.append((cobj, cand))
                    if cobj > best_obj + 1e-12:
                        best_obj, best_set = cobj, cand
            nxt.sort(key=lambda t: -t[0])
            frontier = nxt[:beam]
        return best_set
