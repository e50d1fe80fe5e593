"""The repository benchmark: one workload, one seed, one measured window.

Run from the repository root::

    python3 perfbench/run.py --workload fig2_grid --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``fig2_grid``   — the paper's Figure 2 grid (99 runs at work scale 1.0),
  each run checked against the turnarounds pinned in
  ``perfbench/reference.json`` (drift from ``results/csv`` is reported);
* ``large_smp``   — Quanta Window on a 256-CPU machine;
* ``open_churn``  — open-system Poisson arrivals through the CPU manager;
* ``service_mix`` — ``repro serve`` driven over HTTP by two closed-loop
  clients, about 11 of 12 submissions cache hits.

``--trace 0`` measures the end-to-end metrics with tracing off. Batch
workloads run one untimed warm-up simulation, then time whole seeded
passes over their inputs (a trailing partial pass is checked, not timed).
``--trace 1`` runs the same operations untraced and then traced (wrappers
installed at runtime by ``perfbench/spans.py``; nothing under ``src/`` is
edited) and reports the per-layer metrics, the tracing overhead and the
count ledger. The last stdout line is the JSON result; the lines above it
are the readable report: environment, checks, metrics with sample counts.

``setup_s`` is the median over seven fresh interpreters of the time from
process start to the first timed operation. Each workload runs in a
child interpreter with ``PYTHONPATH=src``; the program is used from
source, so there is nothing to build. Scratch files go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig2_grid", "large_smp", "open_churn", "service_mix")
#: Interpreters timed for setup_s: this many set-up-only ones plus the measured one.
SETUP_ONLY_RUNS = 6
#: Wall-clock budget for one invocation, below the 180 s limit.
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = os.environ.copy()
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Program defaults only: no job-count override from the caller's shell.
    env.pop("REPRO_JOBS", None)
    return env


def _spawn(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )


def _stop(proc: subprocess.Popen) -> None:
    """Kill the worker's whole process group (server included) and reap it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def _wait_ready(proc: subprocess.Popen, t0: float) -> float:
    for line in proc.stdout:
        if line.strip() == "READY":
            return time.perf_counter() - t0
    raise BenchError(f"worker exited with {proc.wait()} before set-up finished")


def _run_worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """(set-up seconds, result dict or None for set-up-only runs)."""
    t0 = time.perf_counter()
    proc = _spawn(args)
    timer = _Watchdog(proc, deadline)
    try:
        setup_s = _wait_ready(proc, t0)
        result = None
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
        if timer.fired:
            raise BenchError("worker exceeded the time budget")
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        if "--setup-only" not in args and result is None:
            raise BenchError("worker printed no result")
        return setup_s, result
    finally:
        timer.cancel()
        _stop(proc)


class _Watchdog:
    """Kills a worker that outlives the invocation's deadline."""

    def __init__(self, proc: subprocess.Popen, deadline: float) -> None:
        self.fired = False
        delay = max(0.0, deadline - time.perf_counter())
        self._timer = threading.Timer(delay, self._fire, (proc,))
        self._timer.daemon = True
        self._timer.start()

    def _fire(self, proc: subprocess.Popen) -> None:
        self.fired = True
        _stop(proc)

    def cancel(self) -> None:
        self._timer.cancel()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source under src/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_ONLY_RUNS):
                setups.append(_run_worker(common + ["--setup-only"], deadline)[0])
        setup_s, result = _run_worker(common, deadline)
        setups.append(setup_s)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["notes"]["setup_s"] = f"n={len(setups)} interpreters, median"
    failed = int(result["failed"])
    attempted = max(1, int(result["attempted"]))
    correct = failed == 0 and all(ok for _, ok, _ in result["checks"])

    env = result["env"]
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload: {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, ok, detail in result["checks"]:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    for line in result["lines"]:
        print(line)
    for name in sorted(metrics):
        m = metrics[name]
        note = result["notes"].get(name)
        print(f"metric {name} = {m['value']!r} {m['unit']}" + (f" ({note})" if note else ""))
    print(f"failed_frac = {failed / attempted!r} ({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
