"""FAULT-1: degradation curves under injected faults.

The robustness counterpart to Figure 2: the same saturated workload (two
target instances plus four BBMA microbenchmarks), but with the
measurement substrate degrading underneath the manager. A reference
:class:`~repro.faults.FaultPlan` combining PMC noise (20 % multiplicative
jitter, dropped / stale / wrapped reads) with lossy signal delivery
(10 % drops, duplicates, bounded extra delay) is swept from intensity 0
(fault-free) to 1 (the full reference rates) for each bandwidth policy.

The headline metric is **retained throughput**: the fault-free mean
target turnaround divided by the mean turnaround at each intensity,
as a percentage. A robust policy-plus-hardening stack keeps retained
throughput high (the acceptance bar is ≥ 80 % at full reference
intensity) because the degradation machinery — retry-with-backoff on
unconfirmed signals, stale-estimate fallback, head-first selection when
every estimate is stale — turns measurement loss into graceful drift
rather than scheduling collapse.

Every run executes under the strict invariant auditor by default: the
curve is only meaningful if the degraded runs still satisfy the paper's
starvation bound and allocation invariants (fault-adjusted as described
in :mod:`repro.audit.checks`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import LinuxSchedConfig, MachineConfig, ManagerConfig
from ..core.policies import BandwidthPolicy
from ..errors import ConfigError
from ..faults import FaultPlan, FaultStats
from ..parallel import run_many
from ..workloads.microbench import bbma_spec
from ..workloads.suites import PAPER_APPS
from .base import SimulationSpec
from .fig2 import default_policies
from .reporting import format_table

__all__ = [
    "REFERENCE_PLAN",
    "DEFAULT_INTENSITIES",
    "FaultCell",
    "FaultRow",
    "run_faults",
    "format_faults",
]

#: The reference fault mix swept by FAULT-1 (intensity 1.0 values): the
#: acceptance operating point — signal loss at 10 %, PMC jitter at 20 % —
#: plus the cheaper noise classes at realistic minor rates. Application
#: faults are deliberately absent: killing or hanging *background* jobs
#: changes the contention the targets face, which would confound the
#: measurement-degradation curve (they are exercised by the test suite
#: and available through custom plans).
REFERENCE_PLAN = FaultPlan(
    pmc_jitter=0.20,
    pmc_drop_prob=0.05,
    pmc_wrap_prob=0.01,
    pmc_stale_prob=0.05,
    signal_drop_prob=0.10,
    signal_duplicate_prob=0.02,
    signal_delay_us=200.0,
)

#: Default intensity sweep (0 is the fault-free baseline).
DEFAULT_INTENSITIES: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class FaultCell:
    """One (policy, intensity) operating point.

    Attributes
    ----------
    intensity:
        Scale factor applied to the reference plan (0 = fault-free).
    turnaround_us:
        Mean target turnaround over the replications.
    retained_percent:
        ``100 × fault-free turnaround / turnaround`` — the fraction of
        fault-free throughput the policy retained at this intensity.
    stats:
        Degradation counters summed over the replications.
    audit_ok:
        Every replication's audit report was clean (vacuously true when
        auditing was disabled).
    """

    intensity: float
    turnaround_us: float
    retained_percent: float
    stats: FaultStats
    audit_ok: bool


@dataclass(frozen=True)
class FaultRow:
    """One policy's degradation curve.

    Attributes
    ----------
    policy:
        Policy name.
    baseline_turnaround_us:
        Fault-free mean target turnaround (the curve's reference point).
    cells:
        One cell per requested intensity, in sweep order.
    """

    policy: str
    baseline_turnaround_us: float
    cells: tuple[FaultCell, ...]

    def retained(self, intensity: float) -> float:
        """Retained-throughput percentage at an intensity, by value."""
        for cell in self.cells:
            if abs(cell.intensity - intensity) < 1e-12:
                return cell.retained_percent
        raise KeyError(intensity)


def _sum_stats(stats: list[FaultStats]) -> FaultStats:
    total: dict[str, int] = {}
    for s in stats:
        for key, value in s.to_dict().items():
            total[key] = total.get(key, 0) + value
    return FaultStats(**total)


def run_faults(
    app: str = "CG",
    plan: FaultPlan | None = None,
    intensities: tuple[float, ...] | list[float] | None = None,
    policies: list[BandwidthPolicy] | None = None,
    replications: int = 3,
    seed: int = 42,
    work_scale: float = 1.0,
    machine: MachineConfig | None = None,
    manager: ManagerConfig | None = None,
    linux: LinuxSchedConfig | None = None,
    audit: bool = True,
    jobs: int | None = 1,
    progress=None,
) -> list[FaultRow]:
    """Run the FAULT-1 sweep: fault intensity × policy.

    Each (policy, intensity) point runs ``replications`` seeds
    (``seed, seed+1, ...``); the retained-throughput denominator is the
    same policy's fault-free mean over the same seeds. The whole grid is
    dispatched through :func:`repro.parallel.run_many`, so results are
    identical for any ``jobs`` count. With ``audit`` (the default) every
    run — degraded or not — executes under the strict invariant auditor
    and a violation aborts the sweep.
    """
    if app not in PAPER_APPS:
        raise ConfigError(f"unknown application {app!r}; known: {', '.join(PAPER_APPS)}")
    if replications < 1:
        raise ConfigError("need at least one replication")
    plan = plan if plan is not None else REFERENCE_PLAN
    wanted = list(intensities if intensities is not None else DEFAULT_INTENSITIES)
    if any(i < 0 for i in wanted):
        raise ConfigError("fault intensities must be non-negative")
    machine = machine or MachineConfig()
    manager = manager or ManagerConfig()
    linux = linux or LinuxSchedConfig()
    templates = policies if policies is not None else default_policies(manager)

    # The baseline point (intensity 0) is always run; it doubles as the
    # cell for intensity 0 when the sweep requests one.
    points = ([0.0] if not any(abs(i) < 1e-12 for i in wanted) else []) + wanted
    app_spec = PAPER_APPS[app].scaled(work_scale)
    background = [bbma_spec() for _ in range(4)]

    specs: list[SimulationSpec] = []
    for template in templates:
        for intensity in points:
            scaled = plan.scaled(intensity)
            for rep in range(replications):
                specs.append(
                    SimulationSpec(
                        targets=[app_spec, app_spec],
                        background=background,
                        scheduler=template,
                        machine=machine,
                        manager=manager,
                        linux=linux,
                        seed=seed + rep,
                        audit=audit,
                        faults=scaled if scaled.enabled else None,
                    )
                )

    results = run_many(specs, jobs=jobs, progress=progress)

    rows: list[FaultRow] = []
    stride = len(points) * replications
    for row_i, template in enumerate(templates):
        chunk = results[row_i * stride : (row_i + 1) * stride]
        by_point = [
            chunk[p * replications : (p + 1) * replications]
            for p in range(len(points))
        ]
        means = [
            sum(r.mean_target_turnaround_us() for r in reps) / len(reps)
            for reps in by_point
        ]
        baseline = means[points.index(0.0)] if 0.0 in points else means[0]
        cells = []
        for intensity in wanted:
            p = points.index(intensity)
            reps = by_point[p]
            cells.append(
                FaultCell(
                    intensity=intensity,
                    turnaround_us=means[p],
                    retained_percent=100.0 * baseline / means[p] if means[p] > 0 else 0.0,
                    stats=_sum_stats(
                        [r.faults if r.faults is not None else FaultStats() for r in reps]
                    ),
                    audit_ok=all(r.audit is None or r.audit.ok for r in reps),
                )
            )
        rows.append(
            FaultRow(
                policy=template.name,
                baseline_turnaround_us=baseline,
                cells=tuple(cells),
            )
        )
    return rows


def format_faults(rows: list[FaultRow]) -> str:
    """Render the degradation curves as a table."""
    if not rows:
        raise ConfigError("no rows to format")
    table_rows = []
    for row in rows:
        for cell in row.cells:
            s = cell.stats
            table_rows.append(
                [
                    row.policy,
                    f"{cell.intensity:.2f}",
                    f"{cell.turnaround_us / 1000:.1f}",
                    f"{cell.retained_percent:.1f}%",
                    str(s.pmc_dropped + s.pmc_stale + s.pmc_wraps + s.pmc_jittered),
                    str(s.signals_dropped),
                    str(s.signal_retries),
                    str(s.stale_fallbacks),
                    str(s.headfirst_fallbacks),
                    "yes" if cell.audit_ok else "NO",
                ]
            )
    return format_table(
        [
            "policy",
            "intensity",
            "turnaround ms",
            "retained",
            "pmc faults",
            "sig drops",
            "retries",
            "stale fb",
            "headfirst fb",
            "audit",
        ],
        table_rows,
        title="FAULT-1: retained throughput vs fault intensity (2 targets + 4 BBMA)",
    )
