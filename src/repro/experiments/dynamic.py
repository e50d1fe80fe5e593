"""DYN-1: open-system evaluation — arrival rate × scheduling policy.

The paper evaluates its policies on *closed* workloads: a fixed job set
runs to completion. A user-level CPU manager, though, is an online server;
this harness measures what the closed experiments cannot — steady-state
queueing behaviour when jobs arrive continuously:

* response time (arrival → completion) and bounded slowdown, with
  batch-means confidence intervals and warmup truncation;
* admission-queue length and drop accounting under bounded capacity;
* the no-starvation watchdog (the circular-list rotation guarantee) at
  every operating point;
* bandwidth-regulation quality: time-averaged bus utilisation and the
  fraction of time the bus sits above the saturation threshold.

The sweep grid is (policy × arrival rate × seed replication), flattened
through :func:`repro.parallel.run_many` like every other harness here —
results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..config import LinuxSchedConfig, MachineConfig, ManagerConfig
from ..core.policies import LatestQuantumPolicy, QuantaWindowPolicy
from ..dynamic import (
    ArrivalProcess,
    BurstyMix,
    DiurnalShape,
    DynamicWorkload,
    FlashCrowdShape,
    HotspotMix,
    JobMix,
    MMPPBurstyArrivals,
    PoissonArrivals,
    RateShape,
    SequentialMix,
    ShapedArrivals,
    ZipfianMix,
    paper_mix,
)
from ..errors import ConfigError
from ..metrics.queueing import QueueingSummary, batch_means_ci, summarize_queueing
from ..parallel import run_many
from .base import SimulationSpec
from .reporting import format_table

__all__ = [
    "DYNAMIC_POLICIES",
    "DynamicRow",
    "make_arrivals",
    "make_mix",
    "make_shape",
    "run_dynamic_sweep",
    "format_dynamic",
]

#: Sweepable schedulers: CLI name → human name. "linux" is the stock
#: kernel baseline; the other two run inside the CPU manager.
DYNAMIC_POLICIES: dict[str, str] = {
    "linux": "linux",
    "latest_quantum": "latest-quantum",
    "quanta_window": "quanta-window",
}


def make_arrivals(kind: str, rate_per_s: float, burstiness: float = 4.0) -> ArrivalProcess:
    """An arrival process of the requested kind at a given mean rate.

    ``"poisson"`` is memoryless at ``rate_per_s``; ``"mmpp"`` alternates
    low/high phases (``rate/burstiness`` and ``rate×burstiness`` around the
    same mean only approximately — the dwell times are chosen so the
    dwell-weighted mean equals ``rate_per_s`` exactly).
    """
    if rate_per_s <= 0:
        raise ConfigError(f"arrival rate must be positive, got {rate_per_s}")
    if kind == "poisson":
        return PoissonArrivals(rate_per_s=rate_per_s)
    if kind == "mmpp":
        if burstiness <= 1.0:
            raise ConfigError(f"mmpp burstiness must exceed 1, got {burstiness}")
        low = rate_per_s / burstiness
        high = rate_per_s * burstiness
        # Equal dwell shares give mean (low+high)/2 > rate; weight the low
        # phase so the dwell-weighted mean is exactly the requested rate:
        # w·low + (1-w)·high = rate  →  w = (high-rate)/(high-low).
        w = (high - rate_per_s) / (high - low)
        total_dwell_s = 5.0
        return MMPPBurstyArrivals(
            rate_low_per_s=low,
            rate_high_per_s=high,
            mean_low_s=total_dwell_s * w,
            mean_high_s=total_dwell_s * (1.0 - w),
        )
    raise ConfigError(f"unknown arrival kind {kind!r}; known: poisson, mmpp, trace")


def make_shape(kind: str, **params: float) -> RateShape:
    """A rate envelope by CLI name: ``diurnal`` or ``flash``.

    Parameters are the shape dataclass fields (``period_s``, ``amplitude``,
    ``phase`` / ``at_s``, ``duration_s``, ``magnitude``); unknown ones
    raise :class:`~repro.errors.ConfigError` via the dataclass validation.
    """
    factories: dict[str, type[RateShape]] = {
        "diurnal": DiurnalShape,
        "flash": FlashCrowdShape,
    }
    if kind not in factories:
        raise ConfigError(
            f"unknown shape kind {kind!r}; known: {', '.join(sorted(factories))}"
        )
    try:
        return factories[kind](**params)
    except TypeError as exc:
        raise ConfigError(f"bad {kind} shape parameters: {exc}") from None


def make_mix(
    kind: str,
    apps: list[str] | None = None,
    work_scale: float = 1.0,
    **params: float,
) -> JobMix:
    """A (possibly skewed/correlated) paper-palette job mix by CLI name.

    ``weighted`` is the plain equal-weight palette; ``zipfian``,
    ``hotspot``, ``sequential`` and ``bursty`` wrap the same palette in
    the corresponding :mod:`repro.dynamic.config` family. Integer-valued
    parameters (``hot_index``, ``run_length``) accept floats from the CLI
    parser and are coerced.
    """
    base = paper_mix(names=apps, work_scale=work_scale)
    if kind == "weighted":
        if params:
            raise ConfigError(f"weighted mix takes no parameters, got {sorted(params)}")
        return base
    factories: dict[str, tuple[type[JobMix], set[str]]] = {
        "zipfian": (ZipfianMix, {"exponent"}),
        "hotspot": (HotspotMix, {"hot_fraction", "hot_index"}),
        "sequential": (SequentialMix, {"run_length"}),
        "bursty": (BurstyMix, {"mean_run_length"}),
    }
    if kind not in factories:
        raise ConfigError(
            f"unknown mix kind {kind!r}; known: weighted, {', '.join(sorted(factories))}"
        )
    factory, allowed = factories[kind]
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(
            f"unknown {kind} mix parameters {sorted(unknown)}; known: {sorted(allowed)}"
        )
    coerced: dict[str, float | int] = {
        k: int(v) if k in ("hot_index", "run_length") else v for k, v in params.items()
    }
    return factory(entries=base.entries, **coerced)


def _scheduler_for(policy: str, manager: ManagerConfig):
    """Map a sweep policy name to a SimulationSpec scheduler."""
    if policy == "linux":
        return "linux"
    if policy == "latest_quantum":
        return LatestQuantumPolicy(fitness_scale=manager.fitness_scale)
    if policy == "quanta_window":
        return QuantaWindowPolicy(
            window_length=manager.window_length, fitness_scale=manager.fitness_scale
        )
    raise ConfigError(
        f"unknown dynamic policy {policy!r}; known: {', '.join(DYNAMIC_POLICIES)}"
    )


@dataclass(frozen=True)
class DynamicRow:
    """One (policy, arrival rate) operating point, aggregated over seeds.

    Attributes
    ----------
    policy:
        Sweep policy name (``linux`` / ``latest_quantum`` / ``quanta_window``).
    rate_per_s:
        Mean arrival rate of the operating point.
    summaries:
        The per-seed :class:`~repro.metrics.queueing.QueueingSummary` list
        (replication order = seed order).
    mean_response_us / response_ci_us:
        Mean response time across replications and its Student-t
        half-width (``None`` with a single replication — no defensible
        error bar from one sample).
    mean_slowdown / slowdown_ci:
        Bounded slowdown, likewise.
    queue_len_time_avg / throughput_jobs_per_s / drop_fraction /
    utilization_time_avg / saturated_fraction:
        Replication means of the per-run metrics.
    max_starvation_age_us / starvation_bound_us:
        Worst observed progress-age and the (largest) configured bound.
    starvation_ok:
        Whether the no-starvation guarantee held in every replication.
    response_p50_us / response_p95_us / response_p99_us:
        Replication means of the per-run response-time quantiles (exact
        with records, P² sketch estimates with ``record_jobs=False``);
        ``None`` when no replication reported them.
    """

    policy: str
    rate_per_s: float
    summaries: tuple[QueueingSummary, ...]
    mean_response_us: float
    response_ci_us: float | None
    mean_slowdown: float
    slowdown_ci: float | None
    queue_len_time_avg: float
    throughput_jobs_per_s: float
    drop_fraction: float
    utilization_time_avg: float
    saturated_fraction: float
    max_starvation_age_us: float
    starvation_bound_us: float
    starvation_ok: bool
    response_p50_us: float | None = None
    response_p95_us: float | None = None
    response_p99_us: float | None = None


def _across_seeds(values: list[float]) -> tuple[float, float | None]:
    """Mean and t-based half-width over replications (one batch per seed).

    A half-width of ``None`` means "no error bar" (zero or one finite
    replication); with no finite values at all the mean itself is NaN.
    """
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return (math.nan, None)
    if len(finite) < 2:
        return (finite[0], None)
    return batch_means_ci(finite, n_batches=len(finite))


def _mean_or_none(values: list[float | None]) -> float | None:
    """Replication mean of an optional metric (None when never reported)."""
    present = [v for v in values if v is not None and math.isfinite(v)]
    if not present:
        return None
    return sum(present) / len(present)


def run_dynamic_sweep(
    policies: list[str] | None = None,
    rates_per_s: list[float] | None = None,
    arrival_kind: str = "poisson",
    arrivals: ArrivalProcess | None = None,
    n_jobs: int = 24,
    max_in_service: int = 4,
    queue_capacity: int | None = None,
    machine: MachineConfig | None = None,
    manager: ManagerConfig | None = None,
    linux: LinuxSchedConfig | None = None,
    seed: int = 42,
    replications: int = 3,
    work_scale: float = 1.0,
    apps: list[str] | None = None,
    jobs: int | None = 1,
    progress=None,
    shapes: list[RateShape] | None = None,
    mix: JobMix | None = None,
    record_jobs: bool = True,
) -> list[DynamicRow]:
    """Sweep arrival rate × policy, replicated across seeds.

    ``arrivals`` overrides the generated process (e.g. a
    :class:`~repro.dynamic.TraceArrivals` replay); the sweep then has a
    single rate axis entry labelled with the trace's mean rate.
    ``shapes`` wraps every arrival process in the given rate envelopes
    (innermost first); ``mix`` overrides the plain paper palette (see
    :func:`make_mix`); ``record_jobs=False`` drops the per-job record
    list so arbitrarily large ``n_jobs`` run in O(1) metric memory.
    Replication ``r`` uses root seed ``seed + r``, so every replication is
    an independent but reproducible sample. The flattened grid runs
    through :func:`repro.parallel.run_many`.
    """
    machine = machine or MachineConfig()
    manager = manager or ManagerConfig()
    linux = linux or LinuxSchedConfig()
    chosen_policies = policies if policies is not None else list(DYNAMIC_POLICIES)
    if replications < 1:
        raise ConfigError(f"need at least one replication, got {replications}")
    if mix is None:
        mix = paper_mix(names=apps, work_scale=work_scale)

    if arrivals is not None:
        rate_axis: list[tuple[float, ArrivalProcess]] = [
            (arrivals.mean_rate_per_s, arrivals)
        ]
    else:
        rates = rates_per_s if rates_per_s is not None else [0.5, 1.0, 2.0]
        rate_axis = [(r, make_arrivals(arrival_kind, r)) for r in rates]
    for shape in shapes or []:
        rate_axis = [
            (shaped.mean_rate_per_s, shaped)
            for shaped in (ShapedArrivals(base=p, shape=shape) for _, p in rate_axis)
        ]

    specs: list[SimulationSpec] = []
    points: list[tuple[str, float, DynamicWorkload]] = []
    for policy in chosen_policies:
        for rate, process in rate_axis:
            workload = DynamicWorkload(
                arrivals=process,
                mix=mix,
                n_jobs=n_jobs,
                max_in_service=max_in_service,
                queue_capacity=queue_capacity,
                record_jobs=record_jobs,
            )
            points.append((policy, rate, workload))
            base_spec = SimulationSpec(
                targets=[],
                scheduler=_scheduler_for(policy, manager),
                machine=machine,
                manager=manager,
                linux=linux,
                seed=seed,
                dynamic=workload,
            )
            for r in range(replications):
                specs.append(
                    replace(
                        base_spec,
                        seed=seed + r,
                        scheduler=_scheduler_for(policy, manager),
                    )
                )

    results = run_many(specs, jobs=jobs, progress=progress)

    rows: list[DynamicRow] = []
    for i, (policy, rate, workload) in enumerate(points):
        chunk = results[i * replications : (i + 1) * replications]
        stats = [res.dynamic for res in chunk]
        summaries = [
            summarize_queueing(
                s,
                warmup_jobs=workload.warmup_jobs(),
                tau_us=workload.slowdown_tau_us,
            )
            for s in stats
        ]
        resp_mean, resp_ci = _across_seeds([s.mean_response_us for s in summaries])
        slow_mean, slow_ci = _across_seeds([s.mean_slowdown for s in summaries])
        n = len(summaries)
        rows.append(
            DynamicRow(
                policy=policy,
                rate_per_s=rate,
                summaries=tuple(summaries),
                mean_response_us=resp_mean,
                response_ci_us=resp_ci,
                mean_slowdown=slow_mean,
                slowdown_ci=slow_ci,
                queue_len_time_avg=sum(s.queue_len_time_avg for s in summaries) / n,
                throughput_jobs_per_s=sum(s.throughput_jobs_per_s for s in summaries) / n,
                drop_fraction=sum(s.drop_fraction for s in summaries) / n,
                utilization_time_avg=sum(s.utilization_time_avg for s in summaries) / n,
                saturated_fraction=sum(s.saturated_fraction for s in summaries) / n,
                max_starvation_age_us=max(s.max_starvation_age_us for s in summaries),
                starvation_bound_us=max(s.starvation_bound_us for s in summaries),
                starvation_ok=all(s.starvation_ok for s in summaries),
                response_p50_us=_mean_or_none([s.response_p50_us for s in summaries]),
                response_p95_us=_mean_or_none([s.response_p95_us for s in summaries]),
                response_p99_us=_mean_or_none([s.response_p99_us for s in summaries]),
            )
        )
    return rows


def _fmt_ci(mean: float, half: float | None, scale: float = 1.0, unit: str = "") -> str:
    if not math.isfinite(mean):
        return "n/a"
    if half is not None and math.isfinite(half):
        return f"{mean * scale:.2f}±{half * scale:.2f}{unit}"
    return f"{mean * scale:.2f}{unit}"


def _fmt_quantile(value: float | None) -> str:
    if value is None or not math.isfinite(value):
        return "n/a"
    return f"{value * 1e-6:.2f}s"


def format_dynamic(rows: list[DynamicRow], quantiles: bool = False) -> str:
    """Render the sweep as a policy × rate table.

    With ``quantiles=True`` the table adds p50/p95/p99 response-time
    columns (the ``repro dynamic --quantiles`` view).
    """
    if not rows:
        raise ConfigError("no rows to format")
    table_rows = []
    for r in rows:
        row = [
            r.policy,
            f"{r.rate_per_s:.2f}",
            _fmt_ci(r.mean_response_us, r.response_ci_us, scale=1e-6, unit="s"),
            _fmt_ci(r.mean_slowdown, r.slowdown_ci),
            f"{r.queue_len_time_avg:.2f}",
            f"{r.throughput_jobs_per_s:.2f}",
            f"{r.drop_fraction * 100:.1f}%",
            f"{r.saturated_fraction * 100:.1f}%",
            "ok" if r.starvation_ok else "VIOLATED",
        ]
        if quantiles:
            row[4:4] = [
                _fmt_quantile(r.response_p50_us),
                _fmt_quantile(r.response_p95_us),
                _fmt_quantile(r.response_p99_us),
            ]
        table_rows.append(row)
    headers = [
        "policy",
        "rate/s",
        "response",
        "slowdown",
        "avg queue",
        "thruput/s",
        "drops",
        "bus sat",
        "starvation",
    ]
    if quantiles:
        headers[4:4] = ["p50", "p95", "p99"]
    return format_table(
        headers,
        table_rows,
        title="DYN-1: open-system sweep — arrival rate × policy",
    )
