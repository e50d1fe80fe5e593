"""Fault-subsystem smoke benchmark: the fault-free tax, timed and gated.

A standalone script (like ``bench_dynamic.py``) that measures what the
fault-injection subsystem costs a run that injects nothing, and writes
``BENCH_faults.json`` with:

* the wall-clock overhead of the always-on hardening bookkeeping
  (watchdog scan + staleness tracking at every boundary) on a fault-free
  run — gated at **< 2%** against the same run with ``hardening=False``;
* three bit-identity gates: fault-free vs. disabled ``FaultPlan()``,
  fault-free vs. ``plan.scaled(0.0)``, and hardening-on vs. hardening-off
  (none of these may perturb the trajectory or the ``RunResult``);
* a short degradation curve at the reference operating point
  (signal loss 10%, PMC jitter 20%) asserting the faulted run stays
  strict-audit clean and actually injected something.

The CI ``faults-smoke`` job runs this at a small scale and fails on any
gate violation.

Usage::

    PYTHONPATH=src python benchmarks/bench_faults.py             # defaults
    PYTHONPATH=src python benchmarks/bench_faults.py --scale 0.1 --repeats 5
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

try:
    from ._timing import paired_ratios, timed
except ImportError:  # run as a script
    from _timing import paired_ratios, timed

OVERHEAD_LIMIT_PCT = 2.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1, help="application work scale")
    parser.add_argument("--seed", type=int, default=42, help="root random seed")
    parser.add_argument(
        "--repeats",
        type=int,
        default=7,
        help="interleaved sample pairs (the median pair ratio is gated)",
    )
    parser.add_argument(
        "--inner",
        type=int,
        default=20,
        help="simulations per timing sample (one run is too short to time)",
    )
    parser.add_argument("--out", type=str, default="BENCH_faults.json", help="report path")
    args = parser.parse_args(argv)

    from repro.config import ManagerConfig
    from repro.core.policies import QuantaWindowPolicy
    from repro.experiments.base import SimulationSpec, run_simulation
    from repro.experiments.faults import REFERENCE_PLAN
    from repro.faults import FaultPlan
    from repro.workloads.microbench import bbma_spec
    from repro.workloads.suites import PAPER_APPS

    app = PAPER_APPS["CG"].scaled(args.scale)

    def spec(hardening=True, faults=None):
        return SimulationSpec(
            targets=[app, app],
            background=[bbma_spec(), bbma_spec(), bbma_spec(), bbma_spec()],
            scheduler=QuantaWindowPolicy(),
            manager=ManagerConfig(hardening=hardening),
            seed=args.seed,
            faults=faults,
        )

    def sample(hardening):
        # Policy instances are stateful (per-app estimators), so every
        # run gets a freshly built spec — reusing one would leak state
        # between runs and break the bit-identity gates.
        return timed(args.inner, lambda: run_simulation(spec(hardening=hardening)))

    # Warm both code paths (imports, caches) before any timing, then
    # time interleaved pairs (hardened first in each pair).
    run_simulation(spec(hardening=True))
    run_simulation(spec(hardening=False))
    timing = paired_ratios(args.repeats, lambda: sample(True), lambda: sample(False))
    hardened, bare = timing.a_result, timing.b_result
    hard_best = min(timing.a_samples)
    bare_best = min(timing.b_samples)
    ratios = timing.ratios
    # Leg 3: a disabled plan must arm nothing (no timing leg needed —
    # identity is the gate; one run suffices).
    disabled = run_simulation(spec(faults=FaultPlan()))
    scaled_zero = run_simulation(spec(faults=REFERENCE_PLAN.scaled(0.0)))
    # Leg 4: the reference operating point injects and stays audit-clean.
    faulted = run_simulation(
        dataclasses.replace(spec(faults=REFERENCE_PLAN), audit=True)
    )

    overhead_pct = 100.0 * (timing.median_ratio - 1.0)

    report = {
        "scale": args.scale,
        "seed": args.seed,
        "repeats": args.repeats,
        "inner": args.inner,
        "hardened_wall_s_best": round(hard_best, 4),
        "bare_wall_s_best": round(bare_best, 4),
        "pair_ratios": [round(r, 4) for r in ratios],
        "fault_free_overhead_pct": round(overhead_pct, 3),
        "overhead_limit_pct": OVERHEAD_LIMIT_PCT,
        "bit_identical_disabled_plan": hardened == disabled,
        "bit_identical_scaled_zero": hardened == scaled_zero,
        "bit_identical_hardening_flag": hardened == bare,
        "faulted_any_injected": faulted.faults.any_injected,
        "faulted_audit_ok": faulted.audit is not None and faulted.audit.ok,
        "faulted_stats": faulted.faults.to_dict(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(
        f"fault-free overhead: {overhead_pct:+.2f}% "
        f"(median of {args.repeats} paired ratios, {args.inner} runs per sample; "
        f"hardened best {hard_best:.3f}s, bare best {bare_best:.3f}s)"
    )
    print(f"wrote {args.out}", file=sys.stderr)

    ok = (
        overhead_pct < OVERHEAD_LIMIT_PCT
        and report["bit_identical_disabled_plan"]
        and report["bit_identical_scaled_zero"]
        and report["bit_identical_hardening_flag"]
        and report["faulted_any_injected"]
        and report["faulted_audit_ok"]
    )
    if not ok:
        print("GATE FAILURE: see report", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
