"""FIG-2A / FIG-2B / FIG-2C: policy evaluation against the Linux scheduler.

The paper's three workload sets, each at multiprogramming degree two (eight
active threads on four processors):

* **Set A** — 2 × target application (2 threads each) + 4 × BBMA: policies
  on an already-saturated bus.
* **Set B** — 2 × target + 4 × nBBMA: policies when innocuous low-bandwidth
  partners are available.
* **Set C** — 2 × target + 2 × BBMA + 2 × nBBMA: the mixed environment.

Each workload runs under the stock Linux scheduler and under each policy
(Latest Quantum, Quanta Window by default); the reported number is the
percentage improvement of the arithmetic mean of the two target instances'
turnaround times — exactly Figure 2's metric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..config import LinuxSchedConfig, MachineConfig, ManagerConfig
from ..core.policies import BandwidthPolicy, LatestQuantumPolicy, QuantaWindowPolicy
from ..errors import ConfigError
from ..metrics.stats import improvement_percent, summarize_improvements
from ..parallel import run_many
from ..workloads.microbench import bbma_spec, nbbma_spec
from ..workloads.suites import PAPER_APPS
from .base import SimulationSpec
from .reporting import format_table

__all__ = [
    "Fig2Cell",
    "Fig2Row",
    "WORKLOAD_SETS",
    "default_policies",
    "run_fig2",
    "format_fig2",
]

#: The three workload sets: name → background microbenchmark factory list.
WORKLOAD_SETS: dict[str, tuple[str, ...]] = {
    "A": ("BBMA", "BBMA", "BBMA", "BBMA"),
    "B": ("nBBMA", "nBBMA", "nBBMA", "nBBMA"),
    "C": ("BBMA", "BBMA", "nBBMA", "nBBMA"),
}


def _background(set_name: str) -> list:
    try:
        kinds = WORKLOAD_SETS[set_name]
    except KeyError:
        raise ConfigError(
            f"unknown workload set {set_name!r}; known: {', '.join(WORKLOAD_SETS)}"
        ) from None
    return [bbma_spec() if k == "BBMA" else nbbma_spec() for k in kinds]


def default_policies(manager: ManagerConfig) -> list[BandwidthPolicy]:
    """The paper's two policies, configured from the manager settings."""
    return [
        LatestQuantumPolicy(fitness_scale=manager.fitness_scale),
        QuantaWindowPolicy(
            window_length=manager.window_length, fitness_scale=manager.fitness_scale
        ),
    ]


@dataclass(frozen=True)
class Fig2Cell:
    """One (application, policy) measurement within a workload set.

    Attributes
    ----------
    policy:
        Policy name.
    turnaround_us:
        Mean turnaround of the two target instances under the policy.
    improvement_percent:
        Improvement over the Linux baseline (Figure 2's y-axis).
    """

    policy: str
    turnaround_us: float
    improvement_percent: float


@dataclass(frozen=True)
class Fig2Row:
    """One application's results within a workload set.

    Attributes
    ----------
    name:
        Application name.
    linux_turnaround_us:
        Mean target turnaround under the stock Linux scheduler.
    cells:
        Per-policy outcomes.
    """

    name: str
    linux_turnaround_us: float
    cells: tuple[Fig2Cell, ...]

    def improvement(self, policy: str) -> float:
        """Improvement percentage of a policy by name."""
        for cell in self.cells:
            if cell.policy == policy:
                return cell.improvement_percent
        raise KeyError(policy)


def run_fig2(
    set_name: str,
    machine: MachineConfig | None = None,
    manager: ManagerConfig | None = None,
    linux: LinuxSchedConfig | None = None,
    policies: list[BandwidthPolicy] | None = None,
    seed: int = 42,
    work_scale: float = 1.0,
    apps: list[str] | None = None,
    jobs: int | None = 1,
    progress=None,
) -> list[Fig2Row]:
    """Run one workload set (A, B or C) for every application.

    Returns one row per application with the Linux baseline and each
    policy's improvement. Every run works on its own deep copy of a
    ``policies`` instance (see
    :attr:`~repro.experiments.base.SimulationSpec.scheduler`), so
    estimator state never leaks across workloads. The whole
    (application × scheduler) grid is dispatched through
    :func:`repro.parallel.run_many`; ``jobs`` and ``progress`` are
    forwarded to it, and results are identical for any job count.
    """
    machine = machine or MachineConfig()
    manager = manager or ManagerConfig()
    linux = linux or LinuxSchedConfig()
    names = apps if apps is not None else list(PAPER_APPS)
    templates = policies if policies is not None else default_policies(manager)

    # Flatten the grid: per application, one Linux baseline plus one run
    # per policy, in a fixed order we reassemble below.
    specs: list[SimulationSpec] = []
    for name in names:
        app_spec = PAPER_APPS[name].scaled(work_scale)
        base_spec = SimulationSpec(
            targets=[app_spec, app_spec],
            background=_background(set_name),
            scheduler="linux",
            machine=machine,
            manager=manager,
            linux=linux,
            seed=seed,
        )
        specs.append(base_spec)
        specs += [replace_scheduler(base_spec, policy) for policy in templates]

    results = run_many(specs, jobs=jobs, progress=progress)

    rows: list[Fig2Row] = []
    stride = 1 + len(templates)
    for row_i, name in enumerate(names):
        chunk = results[row_i * stride : (row_i + 1) * stride]
        linux_t = chunk[0].mean_target_turnaround_us()
        cells = []
        for policy, result in zip(templates, chunk[1:]):
            t = result.mean_target_turnaround_us()
            cells.append(
                Fig2Cell(
                    policy=policy.name,
                    turnaround_us=t,
                    improvement_percent=improvement_percent(linux_t, t),
                )
            )
        rows.append(Fig2Row(name=name, linux_turnaround_us=linux_t, cells=tuple(cells)))
    return rows


def replace_scheduler(spec: SimulationSpec, policy: BandwidthPolicy) -> SimulationSpec:
    """Copy a simulation spec with a policy scheduler substituted."""
    return replace(spec, scheduler=policy)


def format_fig2(set_name: str, rows: list[Fig2Row]) -> str:
    """Render one workload set as Figure 2 does (improvement % per policy)."""
    if not rows:
        raise ConfigError("no rows to format")
    policy_names = [c.policy for c in rows[0].cells]
    table_rows = []
    for row in rows:
        table_rows.append(
            [row.name]
            + [f"{row.improvement(p):+.1f}%" for p in policy_names]
        )
    summaries = {
        p: summarize_improvements([r.improvement(p) for r in rows]) for p in policy_names
    }
    header = {
        "A": "2 Apps (2 threads each) + 4 BBMA",
        "B": "2 Apps (2 threads each) + 4 nBBMA",
        "C": "2 Apps (2 threads each) + 2 BBMA + 2 nBBMA",
    }.get(set_name, set_name)
    body = format_table(
        ["app"] + [f"{p} impr." for p in policy_names],
        table_rows,
        title=f"FIG-2{set_name}: {header} — avg turnaround improvement vs Linux",
    )
    tail = "\n".join(f"  {p}: {summaries[p]}" for p in policy_names)
    return body + "\n" + tail
