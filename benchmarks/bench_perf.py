"""PERF: solver/dispatch variants, wall clock, and cache effectiveness.

A standalone script (not a pytest-benchmark module) that times ``run_fig2``
three ways, times the vectorized hot path on a scaled-up workload, and
writes ``BENCH_fig2.json``:

1. **serial / cache off** — the pre-optimization baseline
   (``solve_cache_size=0``);
2. **serial / cache on** — the PR 1 memo-cache solver;
3. **parallel / chunked** — the cached grid through ``run_many(jobs=N)``
   with chunked dispatch.

Alongside wall-clock it records solver-work counters summed over every
simulation in the grid: ``solve`` invocations, memo cache hits,
warm starts, and root-finder throughput evaluations — the optimizations'
job is to make the last number drop. The script asserts the variants agree
on the figure's actual rows: chunked parallel must match serial *exactly*;
cache-off must match the cached run to solver tolerance (the CI benchmark
smoke job runs this script and fails on any violation). The paper's
4-CPU machine never solves enough lanes for the batched Newton finder,
so these variants all run bisection.

The **vectorized** section scales the fig2 workload up to a large SMP
(default: 256 CPUs, 128 target app instances of Barnes/SP/CG/Raytrace
plus 128 microbenchmark background apps under the Quanta Window policy)
and times the SoA machine path against the scalar lane loops. Both
solve the bus with the batched Newton finder the lane count selects. The
machine picks its hot path by CPU count, so the script forces the scalar
loops for the reference side. The two runs must produce *bit-identical*
``RunResult``s — the speedup is pure evaluation-order-preserving
batching — and the report carries the hot-path counters
(``batched_lanes``, ``dirty_mask_hits``) that show where the time went.
One more run of the same workload with bisection forced at every lane
count gives the Newton gates: ``newton_within_tolerance`` (every
turnaround within solver tolerance of bisection) and
``newton_step_reduction_pct`` (the cut in root-finder throughput
evaluations).

The **entry_build** section micro-benchmarks the ``_ensure_solution``
entry build alone — every lane dirtied, solve memoized away — and
reports µs per 1k dirty lanes for the scalar loop vs the SoA array
pass, plus the ratio. The **vectorized** section additionally carries
the previously committed walls (``prior_walls``) and the cumulative
speedups against them, so the report shows both this run's ratio and
the across-PR trend.

Parallel timing is only reported as a speedup where it can be one: the
script records ``os.cpu_count()``, the scheduler affinity mask *and*
the cgroup CPU quota (containers often show many CPUs while throttled
to a fraction of one), and on boxes where fewer than two CPUs are
actually usable the ``run_many`` entries are annotated as skipped (with
the reason) rather than reporting a misleading sub-1x "speedup" from
oversubscribing a single core. The bit-identity gate still runs with 2
workers either way.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py            # defaults
    PYTHONPATH=src python benchmarks/bench_perf.py --jobs 4 --scale 0.2
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Iterator

from repro.config import BusConfig, MachineConfig
from repro.parallel import cgroup_cpu_quota, fork_available, resolve_jobs, usable_cpus

try:
    from ._timing import best_of
except ImportError:  # run as a script
    from _timing import best_of

#: Application subset for the scaled-up vectorized gate: two
#: bandwidth-hungry codes (SP, CG), one cache-friendly (Barnes) and one
#: mixed (Raytrace), mirroring the fig2 "set A vs set C" spread.
SCALED_APPS = ["Barnes", "SP", "CG", "Raytrace"]

#: Wall-clock seconds from the previously committed BENCH_fig2.json
#: (same box, same scaled workload: 256 CPUs, 32 instances, scale 0.05,
#: seed 42). Carried forward so each refresh also reports the cumulative
#: hot-path speedup across PRs, not just this run's scalar-vs-SoA
#: ratio. Update these when re-baselining on new hardware.
PRIOR_WALLS = {
    "serial_newton_warm_s": 1.8512,
    "vectorized_s": 0.4482,
}


@contextlib.contextmanager
def _scalar_machine_path() -> Iterator[None]:
    """Build every machine inside the block on the scalar lane loops."""
    from repro.hw import machine

    saved = machine._SOA_MIN_CPUS
    machine._SOA_MIN_CPUS = sys.maxsize
    try:
        yield
    finally:
        machine._SOA_MIN_CPUS = saved


@contextlib.contextmanager
def _bisect_only() -> Iterator[None]:
    """Solve the bus by bisection at every lane count inside the block."""
    from repro.hw import bus

    saved = bus._BATCH_MIN_LANES
    bus._BATCH_MIN_LANES = sys.maxsize
    try:
        yield
    finally:
        bus._BATCH_MIN_LANES = saved


def _machine(cache: bool) -> MachineConfig:
    bus = BusConfig(solve_cache_size=BusConfig().solve_cache_size if cache else 0)
    return MachineConfig(bus=bus)


def _run(set_name: str, machine: MachineConfig, jobs: int, scale: float,
         apps: list[str], seed: int):
    from repro.experiments.fig2 import _background, default_policies, replace_scheduler
    from repro.config import ManagerConfig, LinuxSchedConfig
    from repro.experiments.base import SimulationSpec
    from repro.parallel import run_many
    from repro.workloads.suites import PAPER_APPS

    manager = ManagerConfig()
    specs = []
    for name in apps:
        app_spec = PAPER_APPS[name].scaled(scale)
        base = SimulationSpec(
            targets=[app_spec, app_spec],
            background=_background(set_name),
            scheduler="linux",
            machine=machine,
            manager=manager,
            linux=LinuxSchedConfig(),
            seed=seed,
        )
        specs.append(base)
        for policy in default_policies(manager):
            specs.append(replace_scheduler(base, policy))
    start = time.perf_counter()
    results = run_many(specs, jobs=jobs)
    elapsed = time.perf_counter() - start
    stats = {
        "wall_clock_s": round(elapsed, 4),
        "simulations": len(results),
        "solve_calls": sum(r.bus_solve_calls for r in results),
        "cache_hits": sum(r.bus_cache_hits for r in results),
        "warm_starts": sum(r.bus_warm_starts for r in results),
        "solver_steps": sum(r.bus_bisection_steps for r in results),
    }
    # Back-compat alias: earlier reports called this "bisection_steps".
    stats["bisection_steps"] = stats["solver_steps"]
    stats["cache_hit_rate"] = (
        round(stats["cache_hits"] / stats["solve_calls"], 4)
        if stats["solve_calls"]
        else 0.0
    )
    return results, stats


def _scaled_spec(n_cpus: int, inst: int, scale: float, seed: int,
                 profile: bool = False):
    """One scaled-up fig2 workload under Quanta Window.

    ``inst`` instances of each app in :data:`SCALED_APPS` (two threads
    each), ``3*inst`` BBMA + ``inst`` nBBMA background apps, on an
    ``n_cpus``-way machine whose bus capacity scales with the CPU count.
    """
    from repro.config import LinuxSchedConfig, ManagerConfig
    from repro.experiments.base import SimulationSpec
    from repro.experiments.fig2 import default_policies
    from repro.workloads.microbench import bbma_spec, nbbma_spec
    from repro.workloads.suites import PAPER_APPS

    machine = MachineConfig(
        n_cpus=n_cpus,
        bus=BusConfig(capacity_txus=BusConfig().capacity_txus * (n_cpus / 4.0)),
    )
    manager = ManagerConfig()
    policy = default_policies(manager)[1]  # Quanta Window
    targets = []
    for name in SCALED_APPS:
        app = PAPER_APPS[name].scaled(scale)
        targets.extend([app] * inst)
    background = [bbma_spec() for _ in range(3 * inst)]
    background += [nbbma_spec() for _ in range(inst)]
    return SimulationSpec(
        targets=targets,
        background=background,
        scheduler=policy,
        machine=machine,
        manager=manager,
        linux=LinuxSchedConfig(),
        seed=seed,
        profile=profile,
    )


def _vector_benchmark(n_cpus: int, inst: int, scale: float, seed: int,
                      reps: int) -> dict:
    """Time the SoA path against the scalar lane loops; gate Newton on bisection."""
    from repro.experiments.base import run_simulation

    def spec():
        return _scaled_spec(n_cpus, inst, scale, seed)

    with _scalar_machine_path():
        t_reference, r_reference = best_of(reps, spec, run_simulation)
    t_vector, r_vector = best_of(reps, spec, run_simulation)
    identical = r_reference == r_vector
    assert identical, "vectorized hot path diverged from the scalar reference"

    # The same workload with every solve bisected: the batched Newton
    # finder must land within solver tolerance of it, in fewer steps.
    with _bisect_only():
        r_bisect = run_simulation(spec())
    _assert_within_tolerance([r_bisect], [r_vector], "newton solver")
    assert r_vector.bus_bisection_steps > 0, "no saturated solve took the Newton finder"

    # One extra profiled run for the hot-path counters (never timed: the
    # per-phase timers themselves cost wall clock).
    profiled = run_simulation(_scaled_spec(n_cpus, inst, scale, seed, profile=True))
    prof = profiled.profile or {}
    section = {
        "workload": {
            "n_cpus": n_cpus,
            "apps": SCALED_APPS,
            "instances_per_app": inst,
            "target_apps": len(SCALED_APPS) * inst,
            "background_apps": 4 * inst,
            "work_scale": scale,
            "scheduler": "quanta-window",
            "seed": seed,
        },
        "best_of": reps,
        "serial_newton_warm": {
            "wall_clock_s": round(t_reference, 4),
            "machine_path": "scalar",
            "solve_calls": r_reference.bus_solve_calls,
            "solver_steps": r_reference.bus_bisection_steps,
        },
        "bisect_reference": {
            "machine_path": "soa",
            "solve_calls": r_bisect.bus_solve_calls,
            "solver_steps": r_bisect.bus_bisection_steps,
        },
        "vectorized": {
            "wall_clock_s": round(t_vector, 4),
            "machine_path": "soa",
            "solve_calls": r_vector.bus_solve_calls,
            "solver_steps": r_vector.bus_bisection_steps,
            "batched_lanes": prof.get("batched_lanes", 0),
            "dirty_mask_hits": prof.get("dirty_mask_hits", 0),
        },
        "speedup_vs_newton": round(t_reference / t_vector, 2),
        "prior_walls": dict(PRIOR_WALLS),
        "speedup_vs_prior_vector": round(
            PRIOR_WALLS["vectorized_s"] / t_vector, 2
        ),
        "total_speedup_vs_prior_newton": round(
            PRIOR_WALLS["serial_newton_warm_s"] / t_vector, 2
        ),
        "bit_identical_newton_vector": identical,
        "newton_step_reduction_pct": round(
            100.0 * (1.0 - r_vector.bus_bisection_steps / r_bisect.bus_bisection_steps), 1
        ),
    }
    return section


def _entry_build_benchmark(n_lanes: int, reps: int = 3) -> dict:
    """Micro-benchmark: ``_ensure_solution`` entry build, µs per 1k dirty lanes.

    Builds a fully-occupied ``n_lanes``-CPU machine twice — once forced
    onto the scalar lane loops, once on the SoA path the machine size
    selects — then repeatedly invalidates the lane signature
    (so every lane is dirty and the skip path cannot fire) and rebuilds. The bus solve
    itself is memoized after the first iteration — identical rates hit
    the solve cache — so the loop isolates exactly the per-lane entry
    construction the SoA store batches: demand-segment lookup, debt/fill
    classification, request building and the grant fold.
    """
    from repro.hw.machine import Machine
    from repro.sim.engine import Engine

    class _Stepped:
        def __init__(self, rate: float, step: float):
            self._rate = rate
            self._step = step

        def segment(self, work: float) -> tuple[float, float]:
            k = int(work // self._step)
            return self._rate * (1.0 + 0.1 * (k % 3)), (k + 1) * self._step

    def build() -> Machine:
        machine = Machine(
            MachineConfig(
                n_cpus=n_lanes,
                bus=BusConfig(capacity_txus=BusConfig().capacity_txus * (n_lanes / 4.0)),
            ),
            Engine(),
        )
        for i in range(n_lanes):
            st = machine.add_thread(
                f"t{i}", _Stepped(4.0 + (i % 13), 1_000.0),
                work_total=1e9, footprint_lines=200.0 * (i % 5),
            )
            machine.dispatch(i, st.tid)
        machine.advance_to(1.0)  # settle once: prime lanes and seg caches
        return machine

    iters = max(1, 20_000 // n_lanes)  # ~20k lane entry-builds per rep
    section = {"n_lanes": n_lanes, "iterations": iters, "best_of": reps}
    for scalar, key in (
        (True, "scalar_us_per_1k_lanes"),
        (False, "soa_us_per_1k_lanes"),
    ):
        with _scalar_machine_path() if scalar else contextlib.nullcontext():
            machine = build()
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            for _ in range(iters):
                machine._soa_sig = None  # defeat the solve-skip path:
                machine._lane_sig = None  # every lane rebuilds
                machine._dirty = True
                machine._ensure_solution()
            best = min(best, time.perf_counter() - start)
        section[key] = round(best / (iters * n_lanes) * 1e9, 2)
    section["soa_speedup"] = round(
        section["scalar_us_per_1k_lanes"] / section["soa_us_per_1k_lanes"], 2
    )
    return section


def _multicore_benchmark(n_cpus: int, inst: int, scale: float, seed: int,
                         jobs: int, cpu_count: int, affinity: int) -> dict:
    """``run_many`` speedup over replications of the scaled workload.

    Honest by construction: the speedup is only measured (and reported)
    when at least two CPUs are actually usable by this process *and*
    fork-based workers exist; otherwise the entry says exactly why it was
    skipped instead of timing oversubscription.
    """
    from repro.parallel import run_many

    quota = cgroup_cpu_quota()
    section = {
        "cpu_count": cpu_count,
        "affinity_cpus": affinity,
        "cgroup_cpu_quota": quota,
        "fork_available": fork_available(),
        "jobs": jobs,
    }
    quota_ok = quota is None or quota >= 2.0
    meaningful = affinity >= 2 and quota_ok and jobs > 1 and fork_available()
    if not meaningful:
        section["skipped"] = True
        quota_str = "none" if quota is None else f"{quota:.2f} cores"
        section["note"] = (
            f"cpu_count={cpu_count}, usable (affinity) CPUs={affinity}, "
            f"cgroup quota={quota_str}, jobs={jobs}, "
            f"fork={fork_available()}: a run_many speedup needs >=2 "
            "usable CPUs (affinity AND cgroup quota) and fork workers; "
            "timing parallel dispatch here would measure "
            "oversubscription, not speedup"
        )
        return section

    def grid():
        return [
            _scaled_spec(n_cpus, inst, scale, seed + i)
            for i in range(jobs)
        ]

    t_serial, r_serial = best_of(1, grid, lambda s: run_many(s, jobs=1))
    t_par, r_par = best_of(1, grid, lambda s: run_many(s, jobs=jobs))
    assert r_par == r_serial, "run_many diverged from serial on scaled grid"
    section.update(
        {
            "skipped": False,
            "replications": jobs,
            "serial_wall_clock_s": round(t_serial, 4),
            "parallel_wall_clock_s": round(t_par, 4),
            "run_many_speedup": round(t_serial / t_par, 2),
            "bit_identical_serial_parallel": True,
        }
    )
    return section


def _assert_within_tolerance(reference, candidate, label: str) -> None:
    """Every finished turnaround must agree to solver tolerance."""
    for a, b in zip(reference, candidate):
        for ra, rb in zip(a.apps, b.apps):
            if ra.turnaround_us is not None:
                assert abs(ra.turnaround_us - rb.turnaround_us) <= max(
                    1e-6 * ra.turnaround_us, 1e-3
                ), f"{label} changed {ra.name} turnaround"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", dest="set_name", default="A", choices=["A", "B", "C"])
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=0, help="0 = all cores")
    parser.add_argument(
        "--apps", type=str, default="Barnes,SP,CG,Raytrace",
        help="comma-separated application subset",
    )
    parser.add_argument("--out", type=str, default="BENCH_fig2.json")
    parser.add_argument(
        "--vector-cpus", type=int, default=256,
        help="machine size for the scaled-up vectorized gate",
    )
    parser.add_argument(
        "--vector-inst", type=int, default=32,
        help="instances of each scaled app (targets = 4*inst)",
    )
    parser.add_argument(
        "--vector-scale", type=float, default=0.05,
        help="work scale for the vectorized gate workload",
    )
    parser.add_argument(
        "--best-of", type=int, default=2,
        help="timing repetitions per vectorized variant (best wins)",
    )
    parser.add_argument(
        "--skip-vector", action="store_true",
        help="skip the scaled-up vectorized section entirely",
    )
    args = parser.parse_args(argv)
    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    jobs = resolve_jobs(args.jobs)
    cpu_count = os.cpu_count() or 1
    affinity = usable_cpus()
    # On a 1-core (or fork-less, or affinity-restricted) box a timed
    # parallel run only measures oversubscription; still verify
    # bit-identity with 2 workers, but annotate the timing as meaningless.
    parallel_meaningful = affinity >= 2 and jobs > 1 and fork_available()
    parallel_jobs = jobs if parallel_meaningful else 2

    variants = {}
    base_results, variants["serial_cache_off"] = _run(
        args.set_name, _machine(cache=False), 1, args.scale, apps, args.seed
    )
    cached_results, variants["serial_cache_on"] = _run(
        args.set_name, _machine(cache=True), 1, args.scale, apps, args.seed
    )
    parallel_results, variants["parallel_chunked"] = _run(
        args.set_name, _machine(cache=True), parallel_jobs, args.scale, apps,
        args.seed,
    )
    if not parallel_meaningful:
        variants["parallel_chunked"]["timing_meaningful"] = False
        variants["parallel_chunked"]["note"] = (
            f"cpu_count={cpu_count}, usable (affinity) CPUs={affinity}, "
            f"jobs={jobs}, fork={fork_available()}: ran with 2 workers for "
            "the bit-identity gate only; wall clock measures "
            "oversubscription, not speedup"
        )

    # Correctness gates: chunked parallel must be exactly serial; the
    # cache may not move any turnaround beyond solver tolerance.
    assert parallel_results == cached_results, "parallel diverged from serial"
    _assert_within_tolerance(base_results, cached_results, "cache")

    vector_section = None
    entry_build_section = None
    if not args.skip_vector:
        vector_section = _vector_benchmark(
            args.vector_cpus, args.vector_inst, args.vector_scale,
            args.seed, args.best_of,
        )
        entry_build_section = _entry_build_benchmark(args.vector_cpus)
    multicore_section = _multicore_benchmark(
        args.vector_cpus, args.vector_inst, args.vector_scale, args.seed,
        jobs, cpu_count, affinity,
    )

    base = variants["serial_cache_off"]
    cached = variants["serial_cache_on"]
    par = variants["parallel_chunked"]
    report = {
        "experiment": f"fig2{args.set_name}",
        "apps": apps,
        "work_scale": args.scale,
        "seed": args.seed,
        "jobs": jobs,
        "cpu_count": cpu_count,
        "affinity_cpus": affinity,
        "cgroup_cpu_quota": cgroup_cpu_quota(),
        "variants": variants,
        "vectorized": vector_section,
        "entry_build": entry_build_section,
        "multicore": multicore_section,
        "vector_speedup_vs_newton": (
            vector_section["speedup_vs_newton"] if vector_section else None
        ),
        "bisection_reduction_pct": round(
            100.0 * (1.0 - cached["solver_steps"] / base["solver_steps"]), 1
        )
        if base["solver_steps"]
        else 0.0,
        "newton_step_reduction_pct": (
            vector_section["newton_step_reduction_pct"] if vector_section else None
        ),
        "cache_speedup_serial": round(
            base["wall_clock_s"] / cached["wall_clock_s"], 2
        ),
        "parallel_speedup_vs_cached_serial": round(
            cached["wall_clock_s"] / par["wall_clock_s"], 2
        )
        if parallel_meaningful
        else None,
        "total_speedup_vs_baseline": round(
            base["wall_clock_s"] / par["wall_clock_s"], 2
        )
        if parallel_meaningful
        else None,
        "bit_identical_serial_parallel": True,
        # _vector_benchmark asserts it; None when that section was skipped.
        "newton_within_tolerance": True if vector_section else None,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(f"[bench] wrote {args.out}", file=sys.stderr)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
