#!/usr/bin/env python3
"""Quickstart: schedule a bandwidth-hungry workload three ways.

Builds the paper's headline scenario — two instances of CG (the most
bus-demanding NAS code) competing with four streaming microbenchmarks on a
4-way Xeon SMP — and runs it under:

1. the stock Linux 2.4-like scheduler (the paper's baseline),
2. the Latest Quantum policy,
3. the Quanta Window policy,

then prints turnaround times and the improvement the paper's Figure 2A
reports. Runs in about a second.

Usage::

    python examples/quickstart.py [--scale 0.25] [--seed 42]
"""

import argparse

from repro import (
    LatestQuantumPolicy,
    QuantaWindowPolicy,
    SimulationSpec,
    run_simulation,
    solo_run,
)
from repro.metrics.stats import improvement_percent, slowdown
from repro.workloads import bbma_spec, paper_app


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25, help="work scale (1.0 = paper size)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--app", type=str, default="CG", help="target application name")
    args = parser.parse_args()

    app = paper_app(args.app).scaled(args.scale)
    background = [bbma_spec()] * 4

    solo = solo_run(app, seed=args.seed)
    solo_t = solo.mean_target_turnaround_us()
    print(f"solo {args.app}: {solo_t / 1e3:.0f} ms "
          f"({solo.workload_rate_txus:.1f} bus transactions/us)")
    print()

    results = {}
    for label, scheduler in [
        ("linux", "linux"),
        ("latest-quantum", LatestQuantumPolicy()),
        ("quanta-window", QuantaWindowPolicy()),
    ]:
        spec = SimulationSpec(
            targets=[app, app],
            background=background,
            scheduler=scheduler,
            seed=args.seed,
        )
        results[label] = run_simulation(spec)

    linux_t = results["linux"].mean_target_turnaround_us()
    print(f"{'scheduler':16s} {'turnaround':>12s} {'slowdown':>9s} {'vs linux':>9s}")
    for label, result in results.items():
        t = result.mean_target_turnaround_us()
        imp = improvement_percent(linux_t, t)
        print(
            f"{label:16s} {t / 1e3:9.0f} ms {slowdown(t, solo_t):8.2f}x {imp:+8.1f}%"
        )
    print()
    print("The policies co-schedule jobs whose per-thread bandwidth matches the")
    print("remaining per-processor bus budget (Equation 1) instead of time-sharing")
    print("every thread, so the bus-bound targets stop stalling each other.")


if __name__ == "__main__":
    main()
