"""SERVICE-SMOKE: end-to-end check of the ``repro serve`` HTTP service.

Boots the real CLI entry point (``python -m repro serve --port 0``) as a
subprocess, then drives the public HTTP API with stdlib ``urllib`` the
way an external client would:

1. ``GET /v1/healthz`` answers and reports a live dispatcher;
2. ``POST /v1/runs`` with a fig2-style spec is accepted (202) and polls
   through ``queued``/``running`` to ``done``;
3. the stored result decodes to a :class:`~repro.metrics.accounting.
   RunResult` that is **bit-identical** (dataclass equality) to a direct
   in-process :func:`~repro.experiments.base.run_simulation` of the same
   spec — the service adds transport, not physics;
4. resubmitting the identical spec is served from cache (200,
   ``cached_from`` set) with *zero* new simulation work — asserted via
   the stats counters (``executed_runs`` stays 1, ``cache.hits`` is 1);
5. ``GET /v1/stats`` exposes queue/dispatch/cache/store sections;
6. a malformed spec is rejected 400 with a path-annotated validation
   error (never enqueued), and so is an unknown ``{"app": ...}`` name,
   with an error that lists the paper's application names;
7. SIGINT drains the server cleanly (exit code 0);
8. a second server started with ``--rate-limit 1 --burst 1`` accepts a
   tenant's first submission and answers its second with 429 and a
   ``Retry-After`` header, and ``/v1/stats`` counts one rate-limited
   rejection.

Run from the repo root (the CI ``service-smoke`` job does exactly this)::

    PYTHONPATH=src python benchmarks/service_smoke.py
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
from repro.workloads.suites import paper_app_names  # noqa: E402

#: A fig2-style cell: one target app + one bandwidth-consuming
#: microbenchmark under the paper's latest-quantum policy, scaled down so
#: the smoke run takes seconds. (Same shape as repro.experiments.fig2.)
FIG2_SPEC = {
    "targets": [{"app": "CG", "work_scale": 0.02}],
    "background": [{"microbench": "BBMA"}],
    "scheduler": {"policy": "latest_quantum"},
    "max_time_us": 200_000,
}

MALFORMED_SPEC = {
    "targets": [{"app": "CG", "work_scale": 0.02}],
    "scheduler": {"policy": "no_such_policy"},
}

UNKNOWN_APP_SPEC = {"targets": [{"app": "NoSuchApp"}]}


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
        return exc.code, json.loads(exc.read()) | {"retry_after": exc.headers["Retry-After"]}


def wait_terminal(base: str, run_id: str, timeout_s: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, record = request(base, "GET", f"/v1/runs/{run_id}")
        assert status == 200, (status, record)
        if record["status"] in ("done", "cached", "failed", "cancelled"):
            return record
        time.sleep(0.05)
    raise TimeoutError(f"run {run_id} not terminal after {timeout_s}s")


def start_server(results_dir: str, *flags: str) -> tuple[subprocess.Popen, str]:
    """Launch ``repro serve`` on an ephemeral port; returns (proc, base URL)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--results-dir", results_dir, *flags],
        stderr=subprocess.PIPE, text=True, env=env,
    )
    # The CLI prints the bound address once the socket is up.
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


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as results_dir:
        proc, base = start_server(results_dir)
        print(f"[smoke] server up at {base}")
        try:
            status, health = request(base, "GET", "/v1/healthz")
            assert status == 200 and health["ok"] and health["dispatcher_running"], health
            print("[smoke] healthz OK")

            status, accepted = request(base, "POST", "/v1/runs", {"spec": FIG2_SPEC})
            assert status == 202 and accepted["status"] == "queued", (status, accepted)
            run_id = accepted["run_id"]
            record = wait_terminal(base, run_id)
            assert record["status"] == "done", record
            assert record["wall_time_s"] and record["wall_time_s"] > 0, record
            print(f"[smoke] run {run_id} done in {record['wall_time_s']:.3f}s")

            status, body = request(base, "GET", f"/v1/runs/{run_id}/result")
            assert status == 200, (status, body)
            served = result_from_dict(body["result"])
            direct = run_simulation(spec_from_dict(FIG2_SPEC))
            assert served == direct, "served result != direct in-process run"
            print("[smoke] result bit-identical to direct run_simulation")

            status, cached = request(base, "POST", "/v1/runs", {"spec": FIG2_SPEC})
            assert status == 200 and cached["cached"], (status, cached)
            assert cached["cached_from"] == run_id, cached
            status, body = request(base, "GET", f"/v1/runs/{cached['run_id']}/result")
            assert status == 200 and result_from_dict(body["result"]) == direct
            print(f"[smoke] resubmit served from cache ({cached['run_id']})")

            status, stats = request(base, "GET", "/v1/stats")
            assert status == 200, (status, stats)
            assert stats["dispatch"]["executed_runs"] == 1, stats  # no re-execution
            assert stats["cache"]["hits"] == 1 and stats["cache"]["lookups"] == 2, stats
            assert stats["store"] == {"cached": 1, "done": 1}, stats
            assert stats["queue"]["depth"] == 0 and stats["queue"]["capacity"] > 0, stats
            print("[smoke] stats: 1 executed, 1 cache hit, queue empty")

            status, err = request(base, "POST", "/v1/runs", {"spec": MALFORMED_SPEC})
            assert status == 400, (status, err)
            assert err["error"]["type"] == "validation", err
            assert err["error"]["path"].startswith("request.spec.scheduler"), err
            status, stats = request(base, "GET", "/v1/stats")
            assert stats["dispatch"]["rejected_invalid"] == 1, stats
            print(f"[smoke] malformed spec rejected 400 at {err['error']['path']}")

            status, err = request(base, "POST", "/v1/runs", {"spec": UNKNOWN_APP_SPEC})
            assert status == 400 and err["error"]["type"] == "validation", (status, err)
            assert all(name in err["error"]["message"] for name in paper_app_names()), err
            status, stats = request(base, "GET", "/v1/stats")
            assert stats["dispatch"]["rejected_invalid"] == 2, stats
            print("[smoke] unknown app rejected 400, valid names listed")
        finally:
            stop_server(proc)
        print("[smoke] clean SIGINT drain, exit 0")

    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as results_dir:
        proc, base = start_server(results_dir, "--rate-limit", "1", "--burst", "1")
        try:
            status, accepted = request(base, "POST", "/v1/runs", {"spec": FIG2_SPEC})
            assert status == 202, (status, accepted)
            status, err = request(base, "POST", "/v1/runs", {"spec": FIG2_SPEC})
            assert status == 429 and err["error"]["type"] == "rate_limited", (status, err)
            assert int(err["retry_after"]) >= 1, err
            status, stats = request(base, "GET", "/v1/stats")
            assert stats["dispatch"]["rejected_rate_limited"] == 1, stats
            wait_terminal(base, accepted["run_id"])
            print(f"[smoke] rate limit: second submit 429, Retry-After {err['retry_after']}s")
        finally:
            stop_server(proc)
    print("SERVICE-SMOKE: all checks passed")
    return 0


def stop_server(proc: subprocess.Popen) -> None:
    """SIGINT the server and require a clean drain (exit code 0)."""
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise
    assert proc.returncode == 0, f"server exit code {proc.returncode}"


if __name__ == "__main__":
    raise SystemExit(main())
