"""Supervision smoke benchmark: the fault-free tax, timed and gated.

A standalone script (like ``bench_faults.py``) that measures what worker
supervision costs an execution that never faults, and writes
``BENCH_supervision.json`` with:

* the wall-clock overhead of passing a ``SupervisionConfig`` to a
  fault-free **serial** ``run_many`` — gated at **< 2%** with the same
  median-of-paired-ratios method as ``bench_faults.py`` (supervision is
  inert on the serial path by design, so this gate pins that down);
* the fault-free **parallel** ratio of the default ``SupervisionConfig``
  (finite deadlines, polled) over the "plain" leg, reported but not
  gated. Every parallel ``run_many`` runs the same supervised loop, so
  the plain leg is the no-config default: crash isolation with no
  deadline, which blocks instead of polling. Single-core CI boxes make
  parallel wall times too noisy to gate honestly;
* three bit-identity gates: configured serial vs unconfigured serial,
  configured parallel vs serial (fork permitting), and — the retry
  contract — a run whose worker is chaos-SIGKILLed on first attempt and
  succeeds on retry must equal the first-try serial result exactly.

The CI ``chaos-smoke`` job runs this and fails on any gate violation.

Usage::

    PYTHONPATH=src python benchmarks/bench_supervision.py            # defaults
    PYTHONPATH=src python benchmarks/bench_supervision.py --repeats 5
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

try:
    from ._timing import paired_ratios, timed
except ImportError:  # run as a script
    from _timing import paired_ratios, timed

OVERHEAD_LIMIT_PCT = 2.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05, help="application work scale")
    parser.add_argument("--seed", type=int, default=42, help="root random seed")
    parser.add_argument(
        "--repeats",
        type=int,
        default=7,
        help="interleaved sample pairs (the median pair ratio is gated)",
    )
    parser.add_argument(
        "--specs",
        type=int,
        default=6,
        help="simulation specs per run_many call",
    )
    parser.add_argument(
        "--inner",
        type=int,
        default=20,
        help="run_many calls per timing sample (one call is too short to time)",
    )
    parser.add_argument("--out", type=str, default="BENCH_supervision.json", help="report path")
    args = parser.parse_args(argv)

    from repro.core.policies import QuantaWindowPolicy
    from repro.experiments.base import SimulationSpec
    from repro.parallel import SupervisionConfig, fork_available, run_many
    from repro.workloads.microbench import bbma_spec
    from repro.workloads.suites import PAPER_APPS

    app = PAPER_APPS["CG"].scaled(args.scale)
    specs = [
        SimulationSpec(
            targets=[app],
            background=[bbma_spec(), bbma_spec()],
            scheduler=QuantaWindowPolicy(),
            seed=args.seed + i,
        )
        for i in range(args.specs)
    ]
    sup = SupervisionConfig()

    def sample(supervise):
        return timed(args.inner, lambda: run_many(specs, jobs=1, supervise=supervise))

    # Warm both paths (imports, caches), then time interleaved pairs
    # (supervised first in each pair).
    sample(None)
    sample(sup)
    timing = paired_ratios(args.repeats, lambda: sample(sup), lambda: sample(None))
    supervised, plain = timing.a_result, timing.b_result
    sup_samples, plain_samples, ratios = timing.a_samples, timing.b_samples, timing.ratios
    overhead_pct = 100.0 * (timing.median_ratio - 1.0)

    report = {
        "scale": args.scale,
        "seed": args.seed,
        "repeats": args.repeats,
        "specs": args.specs,
        "inner": args.inner,
        "supervised_wall_s_best": round(min(sup_samples), 4),
        "plain_wall_s_best": round(min(plain_samples), 4),
        "pair_ratios": [round(r, 4) for r in ratios],
        "fault_free_serial_overhead_pct": round(overhead_pct, 3),
        "overhead_limit_pct": OVERHEAD_LIMIT_PCT,
        "bit_identical_serial": supervised == plain,
        "fork_available": fork_available(),
    }

    if fork_available():
        plain_par_dt, par_plain = timed(1, lambda: run_many(specs, jobs=2, chunk_size=1))
        sup_par_dt, par_sup = timed(
            1, lambda: run_many(specs, jobs=2, chunk_size=1, supervise=sup)
        )
        report["bit_identical_parallel"] = par_sup == plain and par_plain == plain
        report["parallel_supervised_over_plain_ratio"] = round(
            sup_par_dt / plain_par_dt, 4
        )  # informational only: not gated

        # Retry contract: SIGKILL the worker executing spec 0 on its
        # first attempt (kill-once marker dir); the supervised retry must
        # reproduce the first-try serial result bit-for-bit.
        with tempfile.TemporaryDirectory(prefix="repro-chaos-once-") as once_dir:
            os.environ["REPRO_CHAOS_KILL_SPEC"] = specs[0].spec_hash()
            os.environ["REPRO_CHAOS_KILL_ONCE_DIR"] = once_dir
            try:
                retried = run_many(
                    specs,
                    jobs=2,
                    chunk_size=1,
                    supervise=SupervisionConfig(backoff_base_s=0.01, backoff_max_s=0.05),
                )
            finally:
                del os.environ["REPRO_CHAOS_KILL_SPEC"]
                del os.environ["REPRO_CHAOS_KILL_ONCE_DIR"]
        report["bit_identical_after_retry"] = retried == plain
    else:  # pragma: no cover - fork-less platform
        report["bit_identical_parallel"] = None
        report["parallel_supervised_over_plain_ratio"] = None
        report["bit_identical_after_retry"] = None

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(
        f"fault-free serial supervision overhead: {overhead_pct:+.2f}% "
        f"(median of {args.repeats} paired ratios, "
        f"{args.inner}x{args.specs} runs per sample)"
    )
    if report["parallel_supervised_over_plain_ratio"] is not None:
        print(
            "parallel supervised/plain ratio: "
            f"{report['parallel_supervised_over_plain_ratio']:.3f} (not gated)"
        )
    print(f"wrote {args.out}", file=sys.stderr)

    ok = (
        overhead_pct < OVERHEAD_LIMIT_PCT
        and report["bit_identical_serial"]
        and report["bit_identical_parallel"] in (True, None)
        and report["bit_identical_after_retry"] in (True, None)
    )
    if not ok:
        print("GATE FAILURE: see report", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
