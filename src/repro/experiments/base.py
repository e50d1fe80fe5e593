"""The shared simulation runner.

Everything the figure harnesses need reduces to one call:
:func:`run_simulation` builds a machine, launches target and background
applications, installs the requested scheduler stack (dedicated / Linux /
round-robin gang / a bandwidth policy on top of Linux), runs until every
*target* instance completes, and collects a
:class:`~repro.metrics.accounting.RunResult`.

Background applications (the paper's microbenchmarks) have effectively
unbounded work; the run stops on target completion, matching the paper's
measurement of application turnaround within a steadily multiprogrammed
machine.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
from dataclasses import dataclass, field

from .. import audit as audit_mod
from .. import profiling
from ..audit import InvariantAuditor

from ..config import LinuxSchedConfig, MachineConfig, ManagerConfig
from ..core.manager import CpuManager
from ..core.policies import BandwidthPolicy
from ..dynamic.config import DynamicWorkload
from ..dynamic.driver import OpenSystemDriver
from ..errors import ConfigError
from ..faults import FaultInjector, FaultPlan
from ..hw.machine import Machine
from ..metrics.accounting import RunResult, collect_run_result
from ..metrics.timeline import TimelineSampler
from ..rng import RngRegistry
from ..sched.base import KernelScheduler, jobs_from_apps
from ..sched.dedicated import DedicatedScheduler
from ..sched.gang import RoundRobinGangScheduler
from ..sched.linux import LinuxScheduler
from ..sched.linux_o1 import LinuxO1Scheduler
from ..sim.engine import Engine
from ..sim.trace import TraceRecorder
from ..units import seconds
from ..workloads.base import Application, ApplicationSpec

__all__ = ["SimulationSpec", "run_simulation", "solo_run", "solo_spec"]


@dataclass
class SimulationSpec:
    """Declarative description of one simulation run.

    Attributes
    ----------
    targets:
        Measured applications (each spec becomes one instance; repeat a
        spec to run two instances, as the paper's workloads do).
    background:
        Microbenchmark instances running for the whole measurement.
    scheduler:
        ``"dedicated"``, ``"linux"`` (the 2.4-like baseline), ``"linux26"``
        (the O(1) scheduler), ``"gang"``, or a
        :class:`~repro.core.policies.BandwidthPolicy` instance (which runs
        inside a CPU manager on top of a kernel scheduler — pick it with
        ``kernel``). Each run works on a deep copy of the policy, so the
        spec's instance never learns and the same spec always gives the
        same result.
    kernel:
        The kernel substrate under a policy scheduler: ``"linux"`` (2.4,
        the paper's setup) or ``"linux26"``.
    machine:
        Machine configuration (defaults to the paper's 4-way Xeon).
    manager:
        CPU-manager configuration (used when ``scheduler`` is a policy).
    linux:
        Kernel scheduler configuration (used for "linux" and policies).
    seed:
        Root seed for all random streams.
    max_time_us:
        Safety limit on simulated time. A ``dynamic`` run may go on for
        this long past its schedule's span (last arrival plus total
        standalone work), since the span is only known once the driver
        has sampled the schedule.
    dedicated_migration_interval_us:
        Optional seeded migration process for dedicated runs (Figure 1's
        occasional kernel rebalances).
    trace:
        Whether to record a trace (cheap; required for switch counting).
    timeline_period_us:
        Bus-utilisation sampling period, or ``None`` to disable.
    arrivals:
        Dynamically arriving jobs, as ``(time_us, spec)`` pairs — the
        open-system mode the paper's CPU manager (a server accepting
        connections at any time) supports. Arriving jobs count as targets
        (the run ends when every target, static or arrived, completes).
        Supported with the ``"linux"`` scheduler and with policies; the
        static ``"dedicated"``/``"gang"`` schedulers reject arrivals.
    profile:
        Activate wall-clock phase timers for this run and attach the
        per-phase snapshot to ``RunResult.profile`` (see
        :mod:`repro.profiling`). Profiling also engages when the
        process-global switch (CLI ``--profile``) is on. Never affects
        simulated results.
    audit:
        Run the invariant auditor alongside this simulation (see
        :mod:`repro.audit`): bus-capacity, allocation, signal-protocol,
        starvation and accounting invariants are checked at every sample
        tick and quantum boundary, and a violation raises
        :class:`~repro.errors.AuditViolation`. The
        :class:`~repro.audit.AuditReport` attaches to
        ``RunResult.audit``. Also engages when the process-global switch
        (CLI ``--audit``) is on. Like profiling, never affects simulated
        results — trajectories are bit-identical either way.
    dynamic:
        An open-system workload (:class:`repro.dynamic.DynamicWorkload`)
        driven alongside — or instead of — the static applications: jobs
        arrive from a stochastic process, queue for admission, and churn
        through the manager. The run ends when the static targets *and*
        every scheduled dynamic job are done; the resulting queueing
        observations attach to ``RunResult.dynamic``. Like ``arrivals``,
        needs a time-sharing scheduler.
    faults:
        A deterministic fault plan (:class:`repro.faults.FaultPlan`)
        injecting PMC noise, signal-delivery faults and application
        failures into the run. Requires a bandwidth-policy scheduler (the
        fault surface — arena samples, manager signals — only exists under
        a CPU manager). A plan with every rate zero is inert: no injector
        is built and the trajectory is bit-identical to ``faults=None``.
        Degradation counters attach to ``RunResult.faults``. Fault draws
        come from dedicated named RNG streams, so results remain
        deterministic per seed and process-safe through ``run_many``.
    """

    targets: list[ApplicationSpec]
    background: list[ApplicationSpec] = field(default_factory=list)
    scheduler: str | BandwidthPolicy = "linux"
    machine: MachineConfig = field(default_factory=MachineConfig)
    manager: ManagerConfig = field(default_factory=ManagerConfig)
    linux: LinuxSchedConfig = field(default_factory=LinuxSchedConfig)
    seed: int = 42
    max_time_us: float = seconds(600)
    dedicated_migration_interval_us: float | None = None
    trace: bool = True
    timeline_period_us: float | None = None
    arrivals: list[tuple[float, ApplicationSpec]] = field(default_factory=list)
    kernel: str = "linux"
    profile: bool = False
    dynamic: DynamicWorkload | None = None
    audit: bool = False
    faults: FaultPlan | None = None

    def spec_hash(self) -> str:
        """Stable content hash of everything that determines the result.

        SHA-256 over the canonical JSON form of the spec
        (:func:`repro.service.schemas.spec_to_dict` +
        :func:`repro.service.schemas.spec_dict_hash`): the same spec hashes
        identically in every process and interpreter run, and changing
        any result-affecting field — an application's demand pattern, a
        solver knob, the seed — produces a new hash. The service result
        cache and the exact-replay guarantees both key on it.

        The ``profile`` and ``audit`` flags are *excluded*: both are
        pure observability with a structural bit-identity guarantee
        (trajectories are identical with them on or off), so an audited
        resubmission of a completed run is still a cache hit. Every
        other field participates — including ``trace`` (switch counting
        needs it) and ``max_time_us`` (a lower limit can abort a run).

        Raises :class:`repro.errors.ConfigError` for specs without a
        wire format (a custom policy subclass or ``fitness_fn``).
        """
        from ..service.schemas import spec_dict_hash, spec_to_dict

        return spec_dict_hash(spec_to_dict(self))


@dataclass
class SimulationHandle:
    """Everything assembled for one run (exposed for tests and examples)."""

    engine: Engine
    machine: Machine
    apps: list[Application]
    target_apps: list[Application]
    kernel: KernelScheduler
    manager: CpuManager | None
    timeline: TimelineSampler | None
    pending_arrivals: int = 0
    dynamic: OpenSystemDriver | None = None
    auditor: InvariantAuditor | None = None
    faults: FaultInjector | None = None


def _make_kernel(name: str, spec: "SimulationSpec") -> KernelScheduler:
    """Kernel substrate factory for policy-managed runs."""
    if name == "linux":
        return LinuxScheduler(spec.linux)
    if name == "linux26":
        return LinuxO1Scheduler()
    raise ConfigError(f"unknown kernel substrate {name!r}")


def _build(spec: SimulationSpec) -> SimulationHandle:
    if not spec.targets and not spec.arrivals and spec.dynamic is None:
        raise ConfigError("a simulation needs at least one target application")
    if (spec.arrivals or spec.dynamic is not None) and spec.scheduler in ("dedicated", "gang"):
        raise ConfigError(
            f"dynamic arrivals need a time-sharing scheduler; "
            f"{spec.scheduler!r} has a static job set"
        )
    faults_on = spec.faults is not None and spec.faults.enabled
    if faults_on and not isinstance(spec.scheduler, BandwidthPolicy):
        raise ConfigError(
            "fault injection requires a bandwidth-policy scheduler: the "
            "fault surface (arena samples, manager signals, quantum "
            "selection) only exists under a CPU manager"
        )
    engine = Engine()
    trace = TraceRecorder(enabled=spec.trace, capacity=200_000)
    machine = Machine(spec.machine, engine, trace)
    if spec.profile or profiling.enabled():
        machine.enable_profiling()
    registry = RngRegistry(spec.seed)
    # App ids are assigned per run (not from the process-global counter):
    # results must be bit-identical no matter which process — or how many
    # prior simulations that process — ran this spec.
    app_ids = itertools.count(1)

    apps: list[Application] = []
    target_apps: list[Application] = []
    for i, app_spec in enumerate(spec.targets):
        app = Application.launch(
            app_spec, machine, registry.stream(f"target{i}.{app_spec.name}"),
            app_id=next(app_ids),
        )
        apps.append(app)
        target_apps.append(app)
    for i, app_spec in enumerate(spec.background):
        apps.append(
            Application.launch(
                app_spec, machine, registry.stream(f"bg{i}.{app_spec.name}"),
                app_id=next(app_ids),
            )
        )

    auditor: InvariantAuditor | None = None
    if spec.audit or audit_mod.enabled():
        auditor = InvariantAuditor(
            machine, engine, bus_capacity_txus=spec.machine.bus.capacity_txus
        )

    # The injector is only built for plans that actually inject: a
    # zero-rate plan leaves every fault hook unarmed, which is what makes
    # the bit-identity guarantee structural rather than probabilistic.
    injector: FaultInjector | None = None
    if faults_on:
        injector = FaultInjector(spec.faults, registry)

    manager: CpuManager | None = None
    kernel: KernelScheduler
    if isinstance(spec.scheduler, BandwidthPolicy):
        kernel = _make_kernel(spec.kernel, spec)
        manager = CpuManager(
            spec.manager, copy.deepcopy(spec.scheduler), kernel,
            auditor=auditor, faults=injector,
        )
    elif spec.scheduler == "linux":
        kernel = LinuxScheduler(spec.linux)
    elif spec.scheduler == "linux26":
        kernel = LinuxO1Scheduler()
    elif spec.scheduler == "dedicated":
        kernel = DedicatedScheduler(spec.dedicated_migration_interval_us)
    elif spec.scheduler == "gang":
        kernel = RoundRobinGangScheduler(jobs_from_apps(apps), spec.manager.quantum_us)
    else:
        raise ConfigError(f"unknown scheduler {spec.scheduler!r}")

    kernel.attach(machine, engine, registry.stream("kernel"))
    if manager is not None:
        manager.attach(machine, engine, registry.stream("manager"))
        manager.register_apps(apps)

    if injector is not None:
        # Application faults cover the statically launched set (arrived /
        # dynamic jobs churn too fast for per-app failure processes to be
        # meaningful); targets are immune by default so the degradation
        # metric — target turnaround — measures scheduling quality under
        # faults, not the faults killing the measured job itself.
        immune = (
            {a.app_id for a in target_apps} if spec.faults.targets_immune else None
        )
        injector.schedule_app_faults(engine, machine, apps, immune_ids=immune)

    if auditor is not None and manager is None:
        # Kernel-only runs have no manager hooks to ride; audit the bus
        # and engine ledger on a periodic observer tick instead.
        auditor.start_periodic(spec.manager.sample_period_us)

    timeline: TimelineSampler | None = None
    if spec.timeline_period_us is not None:
        timeline = TimelineSampler(machine, engine, spec.timeline_period_us)

    handle = SimulationHandle(
        engine=engine,
        machine=machine,
        apps=apps,
        target_apps=target_apps,
        kernel=kernel,
        manager=manager,
        timeline=timeline,
        auditor=auditor,
        faults=injector,
    )

    # Dynamic arrivals: each fires an engine event that launches the
    # instance, connects it to the CPU manager (if any), and counts it as
    # a target. `pending_arrivals` keeps the stop predicate from declaring
    # victory before every job has even arrived.
    handle.pending_arrivals = len(spec.arrivals)

    def _arrive(index: int, app_spec: ApplicationSpec) -> None:
        app = Application.launch(
            app_spec, machine, registry.stream(f"arrival{index}.{app_spec.name}"),
            app_id=next(app_ids),
        )
        handle.apps.append(app)
        handle.target_apps.append(app)
        handle.pending_arrivals -= 1
        machine.trace.record(
            machine.now, "workload.arrival", app=app.name, app_id=app.app_id
        )
        if manager is not None:
            manager.register_app(app)
        kernel.on_new_threads()

    for i, (at_us, app_spec) in enumerate(spec.arrivals):
        if at_us < 0:
            raise ConfigError("arrival times must be non-negative")
        engine.schedule_at(at_us, lambda i=i, a=app_spec: _arrive(i, a))

    if spec.dynamic is not None:
        # The watchdog's no-starvation bound scales with the scheduling
        # granularity: the manager quantum when a manager runs, else the
        # kernel's nominal time slice.
        quantum_ref = (
            spec.manager.quantum_us if manager is not None else spec.linux.timeslice_us
        )
        handle.dynamic = OpenSystemDriver(
            spec.dynamic,
            machine,
            engine,
            registry,
            manager,
            kernel,
            app_ids,
            quantum_ref_us=quantum_ref,
            n_static_apps=len(apps),
        )

    return handle


def run_simulation(spec: SimulationSpec) -> RunResult:
    """Run one simulation to target completion and collect results."""
    handle = _build(spec)
    result, _ = run_simulation_with_handle(spec, handle)
    return result


def run_simulation_with_handle(
    spec: SimulationSpec, handle: SimulationHandle | None = None
) -> tuple[RunResult, SimulationHandle]:
    """As :func:`run_simulation`, but also return the live objects.

    Tests and examples use the handle to inspect traces, the arena, or the
    timeline after the run.
    """
    if handle is None:
        handle = _build(spec)
    if handle.timeline is not None:
        handle.timeline.start()
    handle.kernel.start()
    if handle.manager is not None:
        handle.manager.start()
    if handle.dynamic is not None:
        handle.dynamic.start()

    def done() -> bool:
        return (
            handle.pending_arrivals == 0
            and all(app.finished for app in handle.target_apps)
            and (handle.dynamic is None or handle.dynamic.all_done)
        )

    max_time = spec.max_time_us
    if handle.dynamic is not None:
        max_time += handle.dynamic.schedule_span_us
    handle.engine.run(advancer=handle.machine, stop=done, max_time=max_time)
    if not done():
        raise ConfigError(
            "simulation went quiescent before all targets finished "
            "(deadlock or starvation; check scheduler configuration)"
        )
    if handle.dynamic is not None:
        # Fold admitted dynamic jobs into the per-app accounting (they are
        # not targets: the static figures' turnaround metric is untouched).
        handle.apps.extend(handle.dynamic.launched_apps)
    # First-seen order (not set order, which varies with hash seeding):
    # the result must be identical across processes and interpreter runs.
    target_names = tuple(dict.fromkeys(a.name for a in handle.target_apps))
    result = collect_run_result(handle.machine, handle.apps, target_names)
    if handle.dynamic is not None:
        result = dataclasses.replace(result, dynamic=handle.dynamic.stats())
    if handle.faults is not None:
        result = dataclasses.replace(result, faults=handle.faults.stats())
    if handle.auditor is not None:
        result = dataclasses.replace(result, audit=handle.auditor.finalize())
    if spec.profile or profiling.enabled():
        snapshot = handle.machine.profile_snapshot()
        if handle.manager is not None:
            snapshot.update(handle.manager.policy.selection_profile())
        result = dataclasses.replace(result, profile=snapshot)
        profiling.record(snapshot)
    return result, handle


def solo_spec(
    app_spec: ApplicationSpec,
    machine: MachineConfig | None = None,
    seed: int = 42,
) -> SimulationSpec:
    """Spec for one application alone on dedicated CPUs (Figure 1 baseline)."""
    return SimulationSpec(
        targets=[app_spec],
        background=[],
        scheduler="dedicated",
        machine=machine or MachineConfig(),
        seed=seed,
        trace=False,
    )


def solo_run(
    app_spec: ApplicationSpec,
    machine: MachineConfig | None = None,
    seed: int = 42,
) -> RunResult:
    """Run one application alone on dedicated CPUs (the Figure 1 baseline)."""
    return run_simulation(solo_spec(app_spec, machine=machine, seed=seed))
