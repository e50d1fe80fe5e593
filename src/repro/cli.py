"""Command-line interface: ``python -m repro <experiment>``.

Regenerates every table and figure of the paper from the terminal::

    python -m repro calibration          # CAL-1 platform anchors
    python -m repro fig1                 # FIG-1A + FIG-1B
    python -m repro fig2 --set A         # FIG-2A (or B / C, or all)
    python -m repro table1               # TAB-1 headline summary
    python -m repro ablations            # ABL-W/Q/F/A
    python -m repro dynamic --rate 1.0   # DYN-1 open-system sweep
    python -m repro faults               # FAULT-1 degradation curves
    python -m repro serve --port 8642    # long-running simulation service
    python -m repro all                  # everything, full scale

``--scale`` shrinks application work (0.25 runs in seconds and preserves
every qualitative shape); ``--seed`` changes all random streams; ``--jobs``
fans the simulation grid out over worker processes (results are
bit-identical to the serial run; ``--jobs 0`` uses every core).
"""

from __future__ import annotations

import argparse
import sys
import time

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-smp",
        description=(
            "Reproduce 'Scheduling Algorithms with Bus Bandwidth Considerations "
            "for SMPs' (ICPP 2003) on a simulated 4-way Xeon SMP."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=["calibration", "fig1", "fig2", "table1", "ablations", "smt", "io", "kernels", "validate", "dynamic", "faults", "serve", "all"],
        help="which artefact to regenerate",
    )
    parser.add_argument("--set", dest="set_name", choices=["A", "B", "C", "all"], default="all")
    parser.add_argument("--scale", type=float, default=1.0, help="application work scale")
    parser.add_argument("--seed", type=int, default=42, help="root random seed")
    parser.add_argument(
        "--apps", type=str, default=None, help="comma-separated application subset"
    )
    parser.add_argument(
        "--csv", type=str, default=None, metavar="DIR",
        help="with 'all': also export every experiment as CSV into DIR",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=(
            "worker processes for the simulation grid (default: REPRO_JOBS "
            "env var or 1; 0 = all cores); results are identical to --jobs 1"
        ),
    )
    dyn = parser.add_argument_group("dynamic", "options for the 'dynamic' open-system sweep")
    dyn.add_argument(
        "--arrival", choices=["poisson", "mmpp", "trace"], default="poisson",
        help="arrival process kind ('trace' needs --trace-file)",
    )
    dyn.add_argument(
        "--rate", type=float, default=None, metavar="R",
        help="single arrival rate (jobs per simulated second)",
    )
    dyn.add_argument(
        "--rates", type=str, default=None, metavar="R1,R2,...",
        help="comma-separated arrival-rate sweep (default: 0.5,1.0,2.0)",
    )
    dyn.add_argument(
        "--policy", type=str, default=None, metavar="P1,P2,...",
        help="comma-separated policies: linux, latest_quantum, quanta_window (default: all)",
    )
    dyn.add_argument(
        "--num-jobs", type=int, default=24, metavar="N",
        help="jobs per dynamic run (the arrival schedule length)",
    )
    dyn.add_argument(
        "--replications", type=int, default=3, metavar="N",
        help="seed replications per operating point (seed, seed+1, ...)",
    )
    dyn.add_argument(
        "--queue-capacity", type=int, default=None, metavar="N",
        help="admission queue slots (default: unbounded; bounded queues drop)",
    )
    dyn.add_argument(
        "--trace-file", type=str, default=None, metavar="PATH",
        help="arrival trace to replay (.json or .csv, see TraceArrivals)",
    )
    dyn.add_argument(
        "--quantiles", action="store_true",
        help="add p50/p95/p99 response-time columns to the sweep table",
    )
    dyn.add_argument(
        "--no-records", action="store_true",
        help=(
            "drop the per-job record list and report from the O(1)-memory "
            "streamed accumulators (quantiles become P2 sketch estimates); "
            "use for very large --num-jobs"
        ),
    )
    dyn.add_argument(
        "--shape", action="append", default=None, metavar="KIND:K=V,...",
        help=(
            "rate envelope over the arrival process, e.g. "
            "'diurnal:period_s=60,amplitude=0.5' or "
            "'flash:at_s=10,duration_s=5,magnitude=3'; repeat to nest"
        ),
    )
    dyn.add_argument(
        "--mix", type=str, default=None, metavar="KIND:K=V,...",
        help=(
            "job-mix family over the paper palette: weighted (default) "
            "or 'zipfian:exponent=1.0'"
        ),
    )
    flt = parser.add_argument_group("faults", "options for the 'faults' degradation sweep")
    flt.add_argument(
        "--intensities", type=str, default=None, metavar="I1,I2,...",
        help=(
            "comma-separated fault-intensity sweep scaling the reference "
            "plan (default: 0,0.25,0.5,0.75,1); 0 is the fault-free baseline"
        ),
    )
    flt.add_argument(
        "--fault-app", type=str, default="CG", metavar="APP",
        help="target application for the degradation sweep (default: CG)",
    )
    flt.add_argument(
        "--no-fault-audit", action="store_true",
        help=(
            "skip the strict invariant auditor during the faults sweep "
            "(on by default there: the degradation curve is only "
            "meaningful if the degraded runs stay invariant-clean)"
        ),
    )
    srv = parser.add_argument_group("serve", "options for the 'serve' simulation service")
    srv.add_argument(
        "--host", type=str, default="127.0.0.1", metavar="ADDR",
        help="bind address for the HTTP server (default: 127.0.0.1)",
    )
    srv.add_argument(
        "--port", type=int, default=8642, metavar="PORT",
        help="bind port (default: 8642; 0 = ephemeral, printed at startup)",
    )
    srv.add_argument(
        "--results-dir", type=str, default="service-results", metavar="DIR",
        help=(
            "directory for the persistent run/result store "
            "(default: service-results; results survive restarts and "
            "serve identical resubmissions from cache)"
        ),
    )
    srv.add_argument(
        "--queue-depth", type=int, default=256, metavar="N",
        help="bounded job-queue capacity; submissions beyond it get HTTP 503",
    )
    srv.add_argument(
        "--no-cache", action="store_true",
        help="always re-run submissions even when an identical spec already completed",
    )
    srv.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help=(
            "execution attempts per spec before it is quarantined "
            "(worker crashes/hangs and service restarts both charge "
            "attempts; default: 3)"
        ),
    )
    srv.add_argument(
        "--rate-limit", type=float, default=None, metavar="R",
        help=(
            "per-tenant sustained submission rate in requests/s "
            "(token bucket; rejected submissions get HTTP 429 with "
            "Retry-After; default: unlimited)"
        ),
    )
    srv.add_argument(
        "--burst", type=float, default=None, metavar="B",
        help=(
            "per-tenant burst allowance for --rate-limit "
            "(default: 2x the rate, at least 1)"
        ),
    )
    srv.add_argument(
        "--max-in-flight", type=int, default=None, metavar="N",
        help=(
            "global cap on simulations owned by one dispatch cycle "
            "(bounds graceful-drain latency; default: batch size)"
        ),
    )
    parser.add_argument(
        "--profile", action="store_true",
        help=(
            "collect per-phase profiling (solver/settle/dispatch time, cache "
            "hit rates) and print the aggregate to stderr; never changes "
            "simulation results (see EXPERIMENTS.md)"
        ),
    )
    parser.add_argument(
        "--audit", action="store_true",
        help=(
            "run the invariant auditor alongside every simulation (bus "
            "capacity, allocation, signal protocol, starvation bound, "
            "accounting reconciliation; see repro.audit); a violation "
            "aborts the run with an AuditViolation, and results are "
            "bit-identical to an unaudited run"
        ),
    )
    return parser


def _progress(args: argparse.Namespace):
    """A stderr progress callback when running multi-process, else None."""
    from .parallel import resolve_jobs

    if resolve_jobs(args.jobs) <= 1:
        return None

    def report(done: int, total: int) -> None:
        print(f"\r[{done}/{total} simulations]", end="", file=sys.stderr)
        if done == total:
            print(file=sys.stderr)

    return report


def _print_profile() -> None:
    """Dump the aggregated per-phase profile to stderr (--profile)."""
    from . import profiling

    agg = profiling.aggregate()
    if not agg:
        print("[profile: no data collected]", file=sys.stderr)
        return
    solve_calls = agg.get("solve_calls", 0.0)
    hits = agg.get("solve_cache_hits", 0.0)
    hit_rate = hits / solve_calls if solve_calls else 0.0
    settles = agg.get("settle_calls", 0.0)
    skip_rate = agg.get("solve_skips", 0.0) / settles if settles else 0.0
    print("[profile]", file=sys.stderr)
    for key in sorted(agg):
        value = agg[key]
        text = f"{value:.6f}" if key.endswith("_s") else f"{value:.0f}"
        print(f"  {key:<22} {text}", file=sys.stderr)
    print(f"  {'cache_hit_rate':<22} {hit_rate:.3f}", file=sys.stderr)
    print(f"  {'solve_skip_rate':<22} {skip_rate:.3f}", file=sys.stderr)


def _apps_arg(args: argparse.Namespace) -> list[str] | None:
    if args.apps is None:
        return None
    return [a.strip() for a in args.apps.split(",") if a.strip()]


def _run_calibration(args: argparse.Namespace) -> None:
    from .experiments.calibration import format_calibration, run_calibration

    print(
        format_calibration(
            run_calibration(seed=args.seed, work_scale=args.scale, jobs=args.jobs)
        )
    )


def _run_fig1(args: argparse.Namespace) -> None:
    from .experiments.fig1 import format_fig1a, format_fig1b, run_fig1

    rows = run_fig1(
        seed=args.seed, work_scale=args.scale, apps=_apps_arg(args),
        jobs=args.jobs, progress=_progress(args),
    )
    print(format_fig1a(rows))
    print()
    print(format_fig1b(rows))


def _run_fig2(args: argparse.Namespace) -> None:
    from .experiments.fig2 import format_fig2, run_fig2

    sets = ["A", "B", "C"] if args.set_name == "all" else [args.set_name]
    for set_name in sets:
        rows = run_fig2(
            set_name, seed=args.seed,
            work_scale=args.scale, apps=_apps_arg(args),
            jobs=args.jobs, progress=_progress(args),
        )
        print(format_fig2(set_name, rows))
        print()


def _run_table1(args: argparse.Namespace) -> None:
    from .experiments.fig2 import run_fig2
    from .experiments.tables import build_table1, format_table1

    results = {
        s: run_fig2(
            s, seed=args.seed, work_scale=args.scale,
            apps=_apps_arg(args), jobs=args.jobs,
        )
        for s in ("A", "B", "C")
    }
    print(format_table1(build_table1(results)))


def _run_ablations(args: argparse.Namespace) -> None:
    from .experiments.ablations import (
        format_arbitration_ablation,
        format_fitness_ablation,
        format_model_ablation,
        format_quantum_ablation,
        format_saturation_ablation,
        format_window_ablation,
        run_arbitration_ablation,
        run_fitness_ablation,
        run_model_ablation,
        run_quantum_ablation,
        run_saturation_ablation,
        run_window_ablation,
    )

    print(
        format_window_ablation(
            run_window_ablation(seed=args.seed, work_scale=args.scale, jobs=args.jobs)
        )
    )
    print()
    print(
        format_quantum_ablation(
            run_quantum_ablation(seed=args.seed, work_scale=args.scale, jobs=args.jobs)
        )
    )
    print()
    print(
        format_fitness_ablation(
            run_fitness_ablation(seed=args.seed, work_scale=args.scale, jobs=args.jobs)
        )
    )
    print()
    print(
        format_arbitration_ablation(
            run_arbitration_ablation(seed=args.seed, work_scale=args.scale, jobs=args.jobs)
        )
    )
    print()
    print(
        format_saturation_ablation(
            run_saturation_ablation(seed=args.seed, work_scale=args.scale, jobs=args.jobs)
        )
    )
    print()
    print(
        format_model_ablation(
            run_model_ablation(seed=args.seed, work_scale=args.scale, jobs=args.jobs)
        )
    )


def _run_smt(args: argparse.Namespace) -> None:
    from .experiments.smt import format_smt_experiment, run_smt_experiment

    rows = run_smt_experiment(
        apps=_apps_arg(args), seed=args.seed, work_scale=args.scale, jobs=args.jobs
    )
    print(format_smt_experiment(rows))


def _run_io(args: argparse.Namespace) -> None:
    from .experiments.io import format_io_experiment, run_io_experiment

    rows = run_io_experiment(seed=args.seed, work_scale=args.scale, jobs=args.jobs)
    print(format_io_experiment(rows))


def _run_kernels(args: argparse.Namespace) -> None:
    from .experiments.kernels import format_kernel_experiment, run_kernel_experiment

    rows = run_kernel_experiment(
        apps=_apps_arg(args), seed=args.seed, work_scale=args.scale, jobs=args.jobs
    )
    print(format_kernel_experiment(rows))


def _parse_kv_spec(text: str, flag: str) -> tuple[str, dict[str, float]]:
    """Parse a ``kind:key=value,key=value`` CLI argument."""
    from .errors import ConfigError

    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if not kind:
        raise ConfigError(f"{flag} needs a kind, got {text!r}")
    params: dict[str, float] = {}
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"{flag}: expected key=value, got {item!r}")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"{flag}: bad numeric value in {item!r}") from None
    return kind, params


def _run_dynamic(args: argparse.Namespace) -> None:
    from .dynamic import TraceArrivals
    from .errors import ConfigError
    from .experiments.dynamic import (
        format_dynamic,
        make_mix,
        make_shape,
        run_dynamic_sweep,
    )

    arrivals = None
    if args.arrival == "trace" or args.trace_file is not None:
        if args.trace_file is None:
            raise ConfigError("--arrival trace needs --trace-file")
        loader = (
            TraceArrivals.from_csv
            if args.trace_file.endswith(".csv")
            else TraceArrivals.from_json
        )
        arrivals = loader(args.trace_file)
    if args.rate is not None and args.rates is not None:
        raise ConfigError("--rate and --rates are mutually exclusive")
    rates = None
    if args.rate is not None:
        rates = [args.rate]
    elif args.rates is not None:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    policies = None
    if args.policy is not None:
        policies = [p.strip() for p in args.policy.split(",") if p.strip()]
    shapes = None
    if args.shape:
        shapes = [
            make_shape(kind, **params)
            for kind, params in (_parse_kv_spec(s, "--shape") for s in args.shape)
        ]
    mix = None
    if args.mix is not None:
        kind, params = _parse_kv_spec(args.mix, "--mix")
        mix = make_mix(kind, apps=_apps_arg(args), work_scale=args.scale, **params)
    rows = run_dynamic_sweep(
        policies=policies,
        rates_per_s=rates,
        arrival_kind=args.arrival if args.arrival != "trace" else "poisson",
        arrivals=arrivals,
        n_jobs=args.num_jobs,
        queue_capacity=args.queue_capacity,
        seed=args.seed,
        replications=args.replications,
        work_scale=args.scale,
        apps=_apps_arg(args),
        jobs=args.jobs,
        progress=_progress(args),
        shapes=shapes,
        mix=mix,
        record_jobs=not args.no_records,
    )
    print(format_dynamic(rows, quantiles=args.quantiles))


def _run_faults(args: argparse.Namespace) -> None:
    from .config import ManagerConfig
    from .errors import ConfigError
    from .experiments.faults import format_faults, run_faults
    from .experiments.fig2 import default_policies

    intensities = None
    if args.intensities is not None:
        intensities = [float(i) for i in args.intensities.split(",") if i.strip()]
    policies = None
    if args.policy is not None:
        by_name = {p.name: p for p in default_policies(ManagerConfig())}
        # Accept the dynamic sweep's snake_case spellings too.
        aliases = {"latest_quantum": "latest-quantum", "quanta_window": "quanta-window"}
        wanted = [
            aliases.get(p.strip(), p.strip())
            for p in args.policy.split(",")
            if p.strip()
        ]
        unknown = [p for p in wanted if p not in by_name]
        if unknown:
            raise ConfigError(
                f"unknown fault-sweep policies {unknown}; known: {', '.join(by_name)}"
            )
        policies = [by_name[p] for p in wanted]
    rows = run_faults(
        app=args.fault_app,
        intensities=intensities,
        policies=policies,
        replications=args.replications,
        seed=args.seed,
        work_scale=args.scale,
        audit=not args.no_fault_audit,
        jobs=args.jobs,
        progress=_progress(args),
    )
    print(format_faults(rows))


def _run_validate(args: argparse.Namespace) -> None:
    from .experiments.validation import format_validation, run_validation

    print(
        format_validation(
            run_validation(seed=args.seed, work_scale=args.scale, jobs=args.jobs)
        )
    )


def _run_serve(args: argparse.Namespace) -> None:
    from .service import ResultStore, SimulationService
    from .service.api import serve
    from .service.ratelimit import RateLimitConfig

    rate_limit = None
    if args.rate_limit is not None:
        burst = args.burst if args.burst is not None else max(1.0, 2.0 * args.rate_limit)
        rate_limit = RateLimitConfig(rate_per_s=args.rate_limit, burst=burst)
    store = ResultStore(args.results_dir)
    service = SimulationService(
        store,
        queue_depth=args.queue_depth,
        jobs=args.jobs,
        cache=not args.no_cache,
        max_attempts=args.max_attempts,
        rate_limit=rate_limit,
        max_in_flight=args.max_in_flight,
    ).start()
    stats = service.stats()
    if stats.recovered_requeued or stats.recovered_quarantined or stats.recovered_failed:
        print(
            f"[repro serve] recovery: re-enqueued {stats.recovered_requeued} "
            f"orphaned run(s), quarantined {stats.recovered_quarantined}, "
            f"failed {stats.recovered_failed} whose spec no longer validates",
            file=sys.stderr,
        )
    server = serve(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"[repro serve] listening on http://{host}:{port} "
          f"(results: {store.path}, queue depth {args.queue_depth})", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\n[repro serve] draining...", file=sys.stderr)
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=True, timeout=60.0)
        store.close()
        print("[repro serve] stopped", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.profile:
        from . import profiling

        profiling.enable()
    if args.audit:
        from . import audit

        audit.enable()
    start = time.time()
    runners = {
        "calibration": _run_calibration,
        "fig1": _run_fig1,
        "fig2": _run_fig2,
        "table1": _run_table1,
        "ablations": _run_ablations,
        "smt": _run_smt,
        "io": _run_io,
        "kernels": _run_kernels,
        "validate": _run_validate,
        "dynamic": _run_dynamic,
        "faults": _run_faults,
        "serve": _run_serve,
    }
    if args.experiment == "all":
        for name in ("calibration", "fig1", "fig2", "table1", "ablations", "smt", "io", "kernels"):
            print(f"=== {name} ===")
            runners[name](args)
            print()
        if args.csv:
            from .experiments.export import export_all

            paths = export_all(
                args.csv, work_scale=args.scale, seed=args.seed, jobs=args.jobs
            )
            print(f"[csv: wrote {len(paths)} files to {args.csv}]", file=sys.stderr)
    else:
        runners[args.experiment](args)
    if args.profile:
        _print_profile()
    if args.audit:
        # Reaching this line means no run raised an AuditViolation.
        print("[audit: all invariant checks passed]", file=sys.stderr)
    print(f"[done in {time.time() - start:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
