"""Workload inputs: every sequence here is a pure function of the seed.

The program only ever sees the :class:`~repro.experiments.base.SimulationSpec`
objects (or their JSON bodies) built from these sequences. Settings a
workload does not name keep the program's defaults — the bus solver mode
included — so a change of default shows up in the numbers.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

#: Scheduler column order of the committed Figure 2 CSVs.
FIG2_SCHEDULERS = ("linux", "latest-quantum", "quanta-window")
FIG2_SETS = ("A", "B", "C")
#: Simulation seed of the committed Figure 2 results.
FIG2_SIM_SEED = 42

#: 256-CPU machine: 32 instances of each app, bus capacity scaled by n/4.
LARGE_CPUS = 256
LARGE_APPS = ("Barnes", "SP", "CG", "Raytrace")
LARGE_INSTANCES = 32
LARGE_SCALE = 0.05
#: Simulation seeds of the large_smp pool (references in reference.json).
LARGE_POOL = (42, 43, 44, 45)

#: Open system: Poisson 5 jobs/s over paper_mix(0.05), 2 BBMA behind it.
CHURN_RATE_PER_S = 5.0
CHURN_SCALE = 0.05
CHURN_JOBS = 150
CHURN_MAX_IN_SERVICE = 4
CHURN_POOL = tuple(range(1, 13))

#: Service traffic: two closed-loop clients over Figure 2 cells at 0.1.
SERVICE_CLIENTS = 2
SERVICE_SCALE = 0.1
SERVICE_SIM_SEEDS = 40
#: Every COLD_EVERY-th cycle of a client submits a spec it has never sent.
SERVICE_COLD_EVERY = 12
#: Repeats draw from this many most recently introduced specs, so each
#: spec is re-requested about equally often (a moving working set).
SERVICE_WORKING_SET = 24
#: Distinct specs dealt to each client (more than a run can use).
SERVICE_POOL_PER_CLIENT = 1000


def app_names() -> list[str]:
    """The paper's eleven applications, in the program's order."""
    from repro.workloads.suites import PAPER_APPS

    return list(PAPER_APPS)


def fig2_cells() -> list[tuple[str, str, str]]:
    """The Figure 2 grid: (set, app, scheduler) for 3 × 11 × 3 runs."""
    return [
        (s, app, sched)
        for s in FIG2_SETS
        for app in app_names()
        for sched in FIG2_SCHEDULERS
    ]


def shuffled_passes(items: list, seed: int) -> Iterator:
    """Endless passes over ``items``, each pass in its own seeded order."""
    for p in itertools.count():
        order = list(items)
        random.Random(seed * 1_000_003 + p).shuffle(order)
        yield from order


def _policy(name: str):
    from repro.config import ManagerConfig
    from repro.experiments.fig2 import default_policies

    for policy in default_policies(ManagerConfig()):
        if policy.name == name:
            return policy
    raise ValueError(f"unknown policy {name!r}")


def _background(set_name: str) -> list:
    from repro.experiments.fig2 import WORKLOAD_SETS
    from repro.workloads.microbench import bbma_spec, nbbma_spec

    return [bbma_spec() if k == "BBMA" else nbbma_spec() for k in WORKLOAD_SETS[set_name]]


def fig2_spec(cell: tuple[str, str, str], work_scale: float = 1.0,
              sim_seed: int = FIG2_SIM_SEED):
    """The SimulationSpec of one Figure 2 cell (a fresh policy each call)."""
    from repro.experiments.base import SimulationSpec
    from repro.workloads.suites import PAPER_APPS

    set_name, app, sched = cell
    app_spec = PAPER_APPS[app].scaled(work_scale)
    return SimulationSpec(
        targets=[app_spec, app_spec],
        background=_background(set_name),
        scheduler="linux" if sched == "linux" else _policy(sched),
        seed=sim_seed,
    )


def large_spec(sim_seed: int):
    """One Quanta Window run on the 256-CPU machine."""
    from repro.config import BusConfig, MachineConfig
    from repro.experiments.base import SimulationSpec
    from repro.workloads.microbench import bbma_spec, nbbma_spec
    from repro.workloads.suites import PAPER_APPS

    machine = MachineConfig(
        n_cpus=LARGE_CPUS,
        bus=BusConfig(capacity_txus=BusConfig().capacity_txus * (LARGE_CPUS / 4.0)),
    )
    targets = []
    for name in LARGE_APPS:
        targets += [PAPER_APPS[name].scaled(LARGE_SCALE)] * LARGE_INSTANCES
    background = [bbma_spec() for _ in range(3 * LARGE_INSTANCES)]
    background += [nbbma_spec() for _ in range(LARGE_INSTANCES)]
    return SimulationSpec(
        targets=targets,
        background=background,
        scheduler=_policy("quanta-window"),
        machine=machine,
        seed=sim_seed,
    )


def churn_spec(sim_seed: int):
    """One open-system run on the 4-CPU machine under Quanta Window."""
    from repro.dynamic.arrivals import PoissonArrivals
    from repro.dynamic.config import DynamicWorkload, paper_mix
    from repro.experiments.base import SimulationSpec
    from repro.workloads.microbench import bbma_spec

    workload = DynamicWorkload(
        arrivals=PoissonArrivals(rate_per_s=CHURN_RATE_PER_S),
        mix=paper_mix(work_scale=CHURN_SCALE),
        n_jobs=CHURN_JOBS,
        max_in_service=CHURN_MAX_IN_SERVICE,
        record_jobs=False,
    )
    return SimulationSpec(
        targets=[],
        background=[bbma_spec(), bbma_spec()],
        scheduler=_policy("quanta-window"),
        dynamic=workload,
        seed=sim_seed,
    )


def service_pools(seed: int, apps: list[str]) -> list[list[tuple[str, str, str, int]]]:
    """Distinct (set, app, scheduler, sim seed) cells dealt to each client.

    No cell is dealt to two clients, so two closed-loop clients never
    have the same spec in flight and every distinct spec runs once.
    """
    space = [
        (s, app, sched, sim_seed)
        for s in FIG2_SETS
        for app in apps
        for sched in FIG2_SCHEDULERS
        for sim_seed in range(1, SERVICE_SIM_SEEDS + 1)
    ]
    chosen = random.Random(seed).sample(space, SERVICE_POOL_PER_CLIENT * SERVICE_CLIENTS)
    return [chosen[c::SERVICE_CLIENTS] for c in range(SERVICE_CLIENTS)]


def service_sequence(seed: int, client: int) -> Iterator[int]:
    """Endless indices into one client's pool, cold every SERVICE_COLD_EVERY.

    Cycle ``i`` submits the next unseen cell when ``i % COLD_EVERY == 0``
    and otherwise repeats a cell drawn uniformly from the last
    SERVICE_WORKING_SET submitted, so the hit share stays about 11/12 for
    the whole run. Once the pool is used up every cycle repeats.
    """
    rng = random.Random(seed * 7919 + client)
    introduced = 0
    for i in itertools.count():
        if i % SERVICE_COLD_EVERY == 0 and introduced < SERVICE_POOL_PER_CLIENT:
            introduced += 1
            yield introduced - 1
        else:
            yield rng.randrange(max(0, introduced - SERVICE_WORKING_SET), introduced)


def service_body(cell: tuple[str, str, str, int], client: int) -> bytes:
    """The POST /v1/runs body for one cell."""
    import json

    from repro.service.schemas import spec_to_dict

    set_name, app, sched, sim_seed = cell
    spec = fig2_spec((set_name, app, sched), work_scale=SERVICE_SCALE, sim_seed=sim_seed)
    return json.dumps({"spec": spec_to_dict(spec), "tenant": f"client{client}"}).encode()
