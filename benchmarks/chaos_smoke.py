"""CHAOS-SMOKE: crash-recovery check of the ``repro serve`` service.

Boots the real CLI entry point as a subprocess and injures it the way
production does, asserting the durability contract end to end:

1. **Worker crash → quarantine.** With ``REPRO_CHAOS_KILL_SPEC`` armed in
   the server's environment, the worker process executing one poisoned
   spec SIGKILLs itself mid-run on every attempt. The supervised
   dispatcher must survive the broken pool, finish every sibling run in
   the same batch, and dead-letter the poisoned spec as ``quarantined``
   after **exactly** ``--max-attempts`` execution attempts, with the
   crash recorded in the run's ``error``.
2. **Service SIGKILL → restart recovery.** With runs queued and running,
   the service process itself is SIGKILLed (no drain, no cleanup) and
   restarted on the same ``--results-dir``. The restart's recovery pass
   must re-enqueue the orphaned rows and drive every one to a terminal
   state — no run lost, none duplicated, none stuck.
3. **The store survives.** After the restart, resubmitting a completed
   spec is still served from cache bit-identically, and resubmitting the
   formerly poisoned spec (chaos disarmed) executes cleanly — quarantine
   dead-letters the *run*, it does not poison the spec hash.

A deterministic trick makes the batch shapes reproducible: each phase
first submits one *slow* spec and waits until it reports ``running`` —
the dispatcher is then provably busy, so everything submitted next
accumulates in the queue and lands in a single multi-spec (parallel)
batch on the following cycle.

Run from the repo root (the CI ``chaos-smoke`` job does exactly this)::

    PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.base import run_simulation  # noqa: E402
from repro.service.schemas import result_from_dict, spec_from_dict  # noqa: E402

MAX_ATTEMPTS = 2

#: Quick fig2-style cell (~tens of ms): the bulk of the traffic.
def quick_spec(seed: int) -> dict:
    return {
        "targets": [{"app": "CG", "work_scale": 0.02}],
        "background": [{"microbench": "BBMA"}],
        "scheduler": {"policy": "latest_quantum"},
        "max_time_us": 200_000,
        "seed": seed,
    }


#: Slow cell (~1 s): parks the dispatcher so the next submissions queue up.
def slow_spec(seed: int) -> dict:
    return {
        "targets": [{"app": "CG", "work_scale": 100.0}],
        "background": [{"microbench": "BBMA"}],
        "scheduler": {"policy": "latest_quantum"},
        "max_time_us": 2_000_000_000,
        "seed": seed,
    }


#: The poisoned spec: perfectly valid — it "crashes" only because the
#: chaos hook SIGKILLs whichever worker executes its hash.
BAD_SPEC = quick_spec(999)

TERMINAL = ("done", "cached", "failed", "cancelled", "quarantined")

#: Every server this script started; a failed check must not leave one running.
_SERVERS: list[subprocess.Popen] = []


def request(base: str, method: str, path: str, body: dict | None = None):
    """One JSON request; returns (status, decoded body) without raising."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def wait_status(base: str, run_id: str, want, timeout_s: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, record = request(base, "GET", f"/v1/runs/{run_id}")
        assert status == 200, (status, record)
        if record["status"] in want:
            return record
        if record["status"] in TERMINAL:  # terminal but not what we wanted
            raise AssertionError(f"run {run_id} ended {record['status']}: {record}")
        time.sleep(0.02)
    raise TimeoutError(f"run {run_id} not {want} after {timeout_s}s")


def wait_terminal(base: str, run_id: str, timeout_s: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, record = request(base, "GET", f"/v1/runs/{run_id}")
        assert status == 200, (status, record)
        if record["status"] in TERMINAL:
            return record
        time.sleep(0.02)
    raise TimeoutError(f"run {run_id} not terminal after {timeout_s}s")


def start_server(results_dir: str, chaos_env: dict | None = None):
    """Launch ``repro serve`` on an ephemeral port; returns (proc, base URL)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
    )
    env.update(chaos_env or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--results-dir", results_dir, "--jobs", "2",
         "--max-attempts", str(MAX_ATTEMPTS)],
        stderr=subprocess.PIPE, text=True, env=env,
    )
    _SERVERS.append(proc)
    deadline = time.monotonic() + 30.0
    line = ""
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line and proc.poll() is not None:
            raise RuntimeError(f"server exited early (rc={proc.returncode})")
        match = re.search(r"listening on (http://\S+)", line)
        if match:
            return proc, match.group(1)
    raise TimeoutError(f"no startup line within 30s (last: {line!r})")


def submit(base: str, spec: dict) -> str:
    status, accepted = request(base, "POST", "/v1/runs", {"spec": spec})
    assert status == 202 and accepted["status"] == "queued", (status, accepted)
    return accepted["run_id"]


def main() -> int:
    try:
        return run_phases()
    finally:
        for proc in _SERVERS:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()


def run_phases() -> int:
    bad_hash = spec_from_dict(BAD_SPEC).spec_hash()
    accepted: list[str] = []  # every run_id the service ever acknowledged

    with tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-") as results_dir:
        # ---- Phase A: worker crashes mid-run, spec is quarantined -----
        proc, base = start_server(
            results_dir, chaos_env={"REPRO_CHAOS_KILL_SPEC": bad_hash}
        )
        print(f"[chaos] server up at {base} (kill armed for {bad_hash[:12]})")

        park = submit(base, slow_spec(seed=7))
        accepted.append(park)
        wait_status(base, park, ("running",))  # dispatcher is now busy
        goods = [submit(base, quick_spec(seed)) for seed in (1, 2)]
        bad = submit(base, BAD_SPEC)
        goods.append(submit(base, quick_spec(3)))
        accepted += goods + [bad]
        print(f"[chaos] batch queued behind the parked run: "
              f"{len(goods)} good + 1 poisoned")

        for run_id in [park] + goods:
            record = wait_terminal(base, run_id)
            assert record["status"] == "done", record
        bad_record = wait_terminal(base, bad)
        assert bad_record["status"] == "quarantined", bad_record
        assert bad_record["attempts"] == MAX_ATTEMPTS, bad_record
        assert bad_record["error"], bad_record
        assert proc.poll() is None, "service died with its worker"
        status, stats = request(base, "GET", "/v1/stats")
        assert status == 200 and stats["dispatch"]["quarantined_runs"] == 1, stats
        print(f"[chaos] worker SIGKILLed twice; siblings done, poisoned spec "
              f"quarantined after exactly {bad_record['attempts']} attempts")

        # ---- Phase B: SIGKILL the service itself mid-batch ------------
        park2 = submit(base, slow_spec(seed=8))
        accepted.append(park2)
        wait_status(base, park2, ("running",))  # orphan-to-be: running
        wave = [submit(base, quick_spec(seed)) for seed in (4, 5, 6)]
        accepted += wave  # orphans-to-be: queued
        proc.kill()  # SIGKILL: no drain, no marks, no cleanup
        proc.wait(timeout=30)
        print("[chaos] service SIGKILLed with 1 running + 3 queued runs")

        # ---- Restart on the same results dir: recovery ----------------
        proc, base = start_server(results_dir)  # chaos disarmed
        print(f"[chaos] restarted at {base}")
        status, stats = request(base, "GET", "/v1/stats")
        assert status == 200, (status, stats)
        assert stats["dispatch"]["recovered_requeued"] == 4, stats
        assert stats["dispatch"]["recovered_quarantined"] == 0, stats
        try:
            for run_id in wave:
                assert wait_terminal(base, run_id)["status"] == "done"
            park2_record = wait_terminal(base, park2)
            assert park2_record["status"] == "done", park2_record
            # The interrupted attempt still counts: 1 pre-kill + 1 rerun.
            assert park2_record["attempts"] == 2, park2_record
            print("[chaos] recovery re-enqueued all 4 orphans; all done")

            # Quarantine survived the restart untouched.
            record = wait_terminal(base, bad)
            assert record["status"] == "quarantined", record
            assert record["attempts"] == MAX_ATTEMPTS, record

            # No run lost, none duplicated, none invented.
            status, body = request(base, "GET", "/v1/runs?limit=100")
            assert status == 200, (status, body)
            listed = [r["run_id"] for r in body["runs"]]
            assert len(listed) == len(set(listed)), "duplicated run ids"
            assert set(listed) == set(accepted), (
                sorted(set(accepted) - set(listed)),  # lost
                sorted(set(listed) - set(accepted)),  # invented
            )
            assert all(r["status"] in TERMINAL for r in body["runs"]), body

            # Cache still serves across the crash, bit-identically.
            status, cached = request(base, "POST", "/v1/runs",
                                     {"spec": quick_spec(1)})
            assert status == 200 and cached["cached"], (status, cached)
            accepted.append(cached["run_id"])
            status, body = request(base, "GET",
                                   f"/v1/runs/{cached['run_id']}/result")
            assert status == 200, (status, body)
            direct = run_simulation(spec_from_dict(quick_spec(1)))
            assert result_from_dict(body["result"]) == direct
            print("[chaos] cache hit after restart, result bit-identical")

            # Quarantine dead-letters the run, not the spec hash: the
            # same spec resubmitted with chaos disarmed runs clean.
            retry = submit(base, BAD_SPEC)
            accepted.append(retry)
            assert wait_terminal(base, retry)["status"] == "done"
            print("[chaos] formerly poisoned spec reruns clean once disarmed")
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert proc.returncode == 0, f"server exit code {proc.returncode}"
        print("[chaos] clean SIGINT drain, exit 0")
    print("CHAOS-SMOKE: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
