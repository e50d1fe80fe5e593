"""Runs one workload in a fresh interpreter; spawned by ``run.py``.

Protocol on stdout: ``READY`` once set-up is done (imports, input
generation and, for ``service_mix``, server boot), then one
``RESULT <json>`` line. With ``--setup-only`` it exits after ``READY``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import http.client
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
import traceback

import inputs
import spans
import stats

#: Relative tolerance of every turnaround / reference comparison.
REL_TOL = 1e-6
#: Batch workloads run at least this many operations, so a tail exists.
MIN_OPS = stats.TAIL_BEYOND + 1
#: Sampled cold results re-run in process and compared bit for bit.
SERVICE_IDENTITY_SAMPLE = 4
SERVICE_POLL_S = 0.005
HTTP_TIMEOUT_S = 60.0

#: Every end-to-end metric name and unit (BENCHMARK.json lists the same).
END_TO_END = [
    ("sim_us_per_host_s", "us/s"),
    ("run_p50_ms", "ms"),
    ("run_tail_ms", "ms"),
    ("req_per_s", "1/s"),
    ("cold_p50_ms", "ms"),
    ("cold_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
#: Every per-layer metric name and unit (BENCHMARK.json lists the same).
SPAN_NAMES = sorted({name for name, _, _ in spans.TARGETS} | {
    "service.api.request", "client.cycle", "client.http"})
PER_LAYER = (
    [(f"{n}.calls", "count") for n in SPAN_NAMES]
    + [(f"{n}.self_s", "s") for n in SPAN_NAMES]
    + [
        ("hw.bus.solver_steps", "count"),
        ("hw.bus.cache_hit_ratio", "ratio"),
        ("hw.machine.solve_skips", "count"),
        ("hw.machine.lane_rebuilds", "count"),
        ("sim.engine.events_fired", "count"),
        ("service.cache_hit_ratio", "ratio"),
        ("service.queue.wait_p50_ms", "ms"),
        ("service.queue.wait_tail_ms", "ms"),
        ("client.polls_per_cycle", "ratio"),
        ("traced_wall_s", "s"),
        ("unattributed_s", "s"),
        ("trace_overhead_frac", "ratio"),
    ]
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE_DIR = os.path.join(ROOT, ".perfbench")


def _rel_ok(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def _peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _env_stamp() -> dict:
    import numpy

    from repro.config import BusConfig
    from repro.parallel import cgroup_cpu_quota, usable_cpus

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "cgroup_cpu_quota": cgroup_cpu_quota(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "solver_mode": BusConfig().solver_mode,
    }


def _code_hash() -> str:
    """Content hash of the program and benchmark sources (ledger file key)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fn in sorted(filenames):
                if fn.endswith((".py", ".json", ".csv")):
                    path = os.path.join(dirpath, fn)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


def _timing(values_s: list[float]) -> tuple[float, float, str]:
    """(p50 ms, tail ms, note) of a list of seconds."""
    ms = [v * 1e3 for v in values_s]
    value, pct, n = stats.tail(ms)
    return stats.median(ms), value, f"n={n}, tail=p{pct:.1f}"


class Report:
    """What a worker hands back to run.py."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        self.notes: dict[str, str] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.lines: list[str] = []
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        if note:
            self.notes[name] = note

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    def to_dict(self) -> dict:
        return {
            "metrics": self.metrics,
            "notes": self.notes,
            "checks": self.checks,
            "lines": self.lines,
            "attempted": self.attempted,
            "failed": self.failed,
        }


# --------------------------------------------------------------------------- ledger


def check_ledger(report: Report, workload: str, seed: int, ledger: dict,
                 conflicts: list[str]) -> None:
    """Counts must repeat exactly: within this run and across same-seed runs."""
    report.check(
        "ledger_within_run", not conflicts,
        f"{len(ledger)} keys, {len(conflicts)} repeated key(s) with other counts",
    )
    path = os.path.join(STATE_DIR, "ledger", f"{workload}-seed{seed}-{_code_hash()}.json")
    prior: dict = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            prior = json.load(fh)
    shared = sorted(set(prior) & set(ledger))
    differ = [k for k in shared if prior[k] != ledger[k]]
    report.check(
        "ledger_across_runs", not differ,
        f"{len(shared)} keys shared with earlier same-seed runs, {len(differ)} differ"
        if prior else "first run of this seed and code: ledger recorded",
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    merged = {**ledger, **prior}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, sort_keys=True)
    totals: dict[str, int] = {}
    for entry in ledger.values():
        for k, v in entry.items():
            totals[k] = totals.get(k, 0) + v
    digest = hashlib.sha256(json.dumps(ledger, sort_keys=True).encode()).hexdigest()[:12]
    report.lines.append(
        "ledger: " + ", ".join(f"{k}={v}" for k, v in sorted(totals.items()))
        + f" over {len(ledger)} distinct inputs (digest {digest})"
    )


def layer_metrics(report: Report, agg: dict, counters: dict, wall_s: float,
                  overhead: float, extra: dict) -> None:
    """Fill every per-layer metric; self times plus remainder equal the wall."""
    for name in SPAN_NAMES:
        calls, _total, self_s = agg.get(name, (0, 0.0, 0.0))
        report.metric(f"{name}.calls", calls, "count")
        report.metric(f"{name}.self_s", self_s, "s")
    unknown = sorted(set(agg) - set(SPAN_NAMES))
    self_sum = sum(v[2] for v in agg.values())
    unattributed = wall_s - self_sum
    report.check(
        "trace_reconciles", not unknown and unattributed >= 0.0,
        f"sum(self_s)={self_sum:.6f} + unattributed_s={unattributed:.6f} "
        f"= traced_wall_s={wall_s:.6f}" + (f"; unlisted spans {unknown}" if unknown else ""),
    )
    solves = counters.get("bus_solve_calls", 0)
    report.metric("hw.bus.solver_steps", counters.get("solver_steps", 0), "count")
    report.metric("hw.bus.cache_hit_ratio",
                  counters.get("bus_cache_hits", 0) / solves if solves else 0.0, "ratio")
    report.metric("hw.machine.solve_skips", counters.get("solve_skips", 0), "count")
    report.metric("hw.machine.lane_rebuilds", counters.get("lane_rebuilds", 0), "count")
    report.metric("sim.engine.events_fired", counters.get("events_fired", 0), "count")
    for name, unit in (("service.cache_hit_ratio", "ratio"),
                       ("service.queue.wait_p50_ms", "ms"),
                       ("service.queue.wait_tail_ms", "ms"),
                       ("client.polls_per_cycle", "ratio")):
        report.metric(name, extra.get(name, 0.0), unit)
    report.metric("traced_wall_s", wall_s, "s")
    report.metric("unattributed_s", unattributed, "s")
    report.metric("trace_overhead_frac", overhead, "ratio")


# --------------------------------------------------------------------------- batch


class Batch:
    """Serial simulations in this process, until the window closes."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name, self.seed, self.seconds = name, seed, seconds

    def setup(self) -> None:
        from repro.experiments import base

        self.base = base
        with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
            self.expect = json.load(fh)[self.name]
        self.lines = []
        if self.name == "fig2_grid":
            self.pool, self.build = inputs.fig2_cells(), inputs.fig2_spec
            self.lines.append(fig2_csv_drift(self.expect))
        elif self.name == "large_smp":
            self.pool, self.build = list(inputs.LARGE_POOL), inputs.large_spec
        else:
            self.pool, self.build = list(inputs.CHURN_POOL), inputs.churn_spec
        self.keys = inputs.shuffled_passes(self.pool, self.seed)

    @staticmethod
    def key_name(key) -> str:
        return "/".join(key) if isinstance(key, tuple) else f"seed{key}"

    def check(self, key, result) -> str | None:
        """None when the result matches its reference, else what differs."""
        if self.name == "fig2_grid":
            got, want = result.mean_target_turnaround_us(), self.expect[self.key_name(key)]
            return None if _rel_ok(got, want) else f"turnaround {got!r} != {want!r}"
        return check_reference(self.name, self.expect[str(key)], result)

    def window(self, keys, seconds: float | None, rec=None, min_ops: int = MIN_OPS) -> dict:
        """Run ``keys`` (or the endless sequence until ``seconds``)."""
        times, sims, ends, failures = [], [], [], []
        done = []
        start = time.perf_counter()
        for key in keys:
            now = time.perf_counter()
            if seconds is not None and now - start >= seconds and len(done) >= min_ops:
                break
            spec = self.build(key)
            if rec is not None:
                spans.key_spec(rec, spec, self.key_name(key))
            t0 = time.perf_counter()
            done.append(key)
            try:
                result = self.base.run_simulation(spec)
            except Exception:
                problem, sim_us = traceback.format_exc(limit=3), 0.0
            else:
                problem, sim_us = self.check(key, result), result.makespan_us
            ends.append(time.perf_counter())
            # A failed operation misses every latency limit.
            times.append(ends[-1] - t0 if problem is None else math.inf)
            sims.append(sim_us)
            if problem is not None:
                failures.append(f"{self.key_name(key)}: {problem}")
        return {"keys": done, "times": times, "sims": sims, "failures": failures,
                "start": start, "ends": ends, "wall": (ends[-1] if ends else start) - start}

    def timed_window(self) -> dict:
        """The measured window, cut to whole passes over the pool.

        Every pass holds each input once, so whole passes give every seed
        the same mix of inputs and the metrics do not depend on which
        inputs a trailing partial pass happened to reach. The partial pass
        still runs and is still checked; it is only left out of the timing.
        """
        per_pass = len(self.pool)
        min_ops = -(-MIN_OPS // per_pass) * per_pass
        w = self.window(self.keys, self.seconds, min_ops=min_ops)
        n = len(w["keys"]) // per_pass * per_pass
        w["timed"] = {"times": w["times"][:n], "sim_us": sum(w["sims"][:n]),
                      "wall": w["ends"][n - 1] - w["start"], "passes": n // per_pass}
        return w

    def run(self, trace: bool) -> Report:
        report = Report()
        report.lines.extend(self.lines)
        # One untimed run first, so lazy imports and first-call costs stay
        # out of the measured window.
        self.window(iter([self.pool[0]]), None)
        if not trace:
            w = self.timed_window()
            self._end_to_end(report, w)
            return report
        # Untraced then traced over the same operations: the ratio of the
        # two walls is the tracing overhead.
        a = self.window(self.keys, self.seconds / 2, min_ops=1)
        rec = spans.Recorder()
        spans.install(rec)
        b = self.window(iter(a["keys"]), None, rec)
        self._attempts(report, b)
        snap = rec.snapshot()
        layer_metrics(report, snap["agg"], snap["counters"], b["wall"],
                      b["wall"] / a["wall"] - 1.0, {})
        check_ledger(report, self.name, self.seed, snap["ledger"], snap["ledger_conflicts"])
        rec.dump(os.path.join(STATE_DIR, "spans", f"{self.name}-seed{self.seed}.json"))
        return report

    def _attempts(self, report: Report, w: dict) -> None:
        report.attempted = len(w["keys"])
        report.failed = len(w["failures"])
        report.check(f"{self.name}_outputs", not w["failures"],
                     f"{report.attempted - report.failed}/{report.attempted} runs match "
                     f"their reference within {REL_TOL:g}"
                     + (f"; first failure: {w['failures'][0]}" if w["failures"] else ""))

    def _end_to_end(self, report: Report, w: dict) -> None:
        self._attempts(report, w)
        t = w["timed"]
        p50, tail, note = _timing(t["times"])
        note += f", {t['passes']} whole passes"
        report.metric("sim_us_per_host_s", t["sim_us"] / t["wall"], "us/s",
                      f"n={len(t['times'])} runs, {t['passes']} whole passes")
        report.metric("run_p50_ms", p50, "ms", note)
        report.metric("run_tail_ms", tail, "ms", note)
        n_ok = sum(1 for x in t["times"] if x != math.inf)
        report.metric("req_per_s", n_ok / t["wall"], "1/s",
                      f"n={n_ok} correct runs in {t['wall']:.3f} s")
        # Every batch operation executes a simulation: all are cold.
        report.metric("cold_p50_ms", p50, "ms", note)
        report.metric("cold_tail_ms", tail, "ms", note)
        report.metric("peak_rss_mb", _peak_rss_mb(False), "MB")

    def close(self) -> None:
        pass


def fig2_csv() -> dict:
    """Mean target turnaround per Figure 2 cell from ``results/csv``."""
    table = {}
    for set_name in inputs.FIG2_SETS:
        path = os.path.join(ROOT, "results", "csv", f"fig2{set_name.lower()}.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                for sched in inputs.FIG2_SCHEDULERS:
                    table[(set_name, row["app"], sched)] = float(
                        row[f"{sched}_turnaround_us"])
    return table


def fig2_csv_drift(pinned: dict) -> str:
    """How far the pinned Figure 2 turnarounds stray from ``results/csv``.

    A report line, not a check: the CSV files predate a change of
    floating-point evaluation order in the machine model that flips a
    near-tie decision in one cell (see ``make_reference.py``), so the runs
    are checked against the table pinned in ``reference.json``.
    """
    table = fig2_csv()
    off = [(k, pinned["/".join(k)] / v - 1.0) for k, v in sorted(table.items())
           if not _rel_ok(pinned["/".join(k)], v)]
    return (f"fig2 reference vs results/csv: {len(table) - len(off)}/{len(table)} cells "
            f"within {REL_TOL:g}" + "".join(f"; {'/'.join(k)} {d:+.2e} rel" for k, d in off))


def reference_record(name: str, result) -> dict:
    """The values of a large_smp / open_churn run that reference.json pins."""
    out = {
        "makespan_us": result.makespan_us,
        "total_transactions": result.total_transactions,
        "context_switches": result.context_switches,
    }
    if name == "large_smp":
        out["mean_target_turnaround_us"] = result.mean_target_turnaround_us()
    else:
        d = result.dynamic
        out.update(
            n_jobs=d.streaming.n_scheduled,
            n_observed=d.streaming.n_observed,
            dropped=d.dropped,
            starvation_violations=d.starvation_violations,
            mean_response_us=d.streaming.mean_response_us,
            utilization_time_avg=d.utilization_time_avg,
            queue_len_time_avg=d.queue_len_time_avg,
        )
    return out


def check_reference(name: str, want: dict, result) -> str | None:
    """None when ``result`` matches the recorded reference, else the difference."""
    got = reference_record(name, result)
    if name == "open_churn":
        if got["n_observed"] != got["n_jobs"]:
            return f"n_observed {got['n_observed']} != n_jobs {got['n_jobs']}"
        if got["dropped"] or got["starvation_violations"]:
            return f"dropped={got['dropped']} violations={got['starvation_violations']}"
    for k, v in want.items():
        if isinstance(v, int) and not isinstance(v, bool):
            if got[k] != v:
                return f"{k} {got[k]!r} != {v!r}"
        elif not _rel_ok(got[k], v):
            return f"{k} {got[k]!r} != {v!r}"
    return None


# --------------------------------------------------------------------------- service


class Server:
    """``repro serve`` in a subprocess on an ephemeral port and fresh store."""

    def __init__(self, traced: bool, tag: str) -> None:
        self.store_dir = os.path.join(STATE_DIR, "tmp", f"{os.getpid()}-{tag}")
        self.spans_out = os.path.join(STATE_DIR, "spans", f"service_mix-{tag}.json")
        flags = ["--port", "0", "--results-dir", self.store_dir]
        if traced:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "serve_traced.py"),
                   "--spans-out", self.spans_out, "--", *flags]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *flags]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=os.environ.copy(),
        )
        self.log: list[str] = []
        for line in self.proc.stderr:
            self.log.append(line)
            if "listening on http://" in line:
                hostport = line.split("http://", 1)[1].split()[0]
                self.host, port = hostport.rsplit(":", 1)
                self.port = int(port)
                break
        else:
            self.proc.wait()
            raise RuntimeError("server exited before listening: " + "".join(self.log))
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()

    def _read_rest(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)

    def stop(self) -> None:
        """SIGINT (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=10)
        import shutil

        shutil.rmtree(self.store_dir, ignore_errors=True)


def http_call(host: str, port: int, method: str, path: str, body: bytes | None = None,
              parent: str | None = None) -> tuple[int, bytes]:
    headers = {"Content-Type": "application/json"}
    if parent is not None:
        headers[spans.PARENT_HEADER] = parent
    conn = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Service:
    """Two closed-loop HTTP clients against a ``repro serve`` subprocess."""

    TERMINAL_OK = ("done", "cached")

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed, self.seconds = seed, seconds
        self.server: Server | None = None

    def setup(self) -> None:
        from repro.service import schemas  # noqa: F401  (client-side codecs)

        self.pools = inputs.service_pools(self.seed, inputs.app_names())
        self.server = Server(traced=False, tag=f"seed{self.seed}-untraced")

    def phase(self, server: Server, seconds: float, rec: spans.Recorder | None) -> dict:
        """Both clients replay their sequences from the start for ``seconds``."""
        clients = [self._client_state(c) for c in range(inputs.SERVICE_CLIENTS)]
        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(target=self._client, name=f"client{c}",
                             args=(server, st, deadline, rec))
            for c, st in enumerate(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        end = max(st["end"] for st in clients)
        status, body = http_call(server.host, server.port, "GET", "/v1/stats")
        service_stats = json.loads(body) if status == 200 else {}
        return {"clients": clients, "start": start, "wall": end - start,
                "stats": service_stats}

    def _client_state(self, c: int) -> dict:
        return {"client": c, "seq": inputs.service_sequence(self.seed, c),
                "bodies": {}, "cycles": [], "failures": [], "cold_payloads": {},
                "makespans": {}, "run_ids": {}, "polls": 0, "sim_us": 0.0,
                "thread_wall": 0.0, "end": 0.0}

    def _client(self, server: Server, st: dict, deadline: float, rec) -> None:
        c = st["client"]
        pool = self.pools[c]
        t_begin = time.perf_counter()
        for idx in st["seq"]:
            if time.perf_counter() >= deadline:
                break
            body = st["bodies"].get(idx)
            if body is None:
                body = st["bodies"][idx] = inputs.service_body(pool[idx], c)
            t0 = time.perf_counter()
            try:
                with rec.span("client.cycle") if rec else contextlib.nullcontext():
                    outcome = self._cycle(server, body, rec, st)
            except Exception:  # a cycle that raised is a failed request
                outcome = ("error", traceback.format_exc(limit=2), None, None)
            dt = time.perf_counter() - t0
            kind, detail, run_id, payload = outcome
            if kind == "error":
                st["failures"].append(f"{pool[idx]}: {detail}")
                st["cycles"].append((idx, None, dt))
                continue
            cached = kind == "hit"
            st["cycles"].append((idx, cached, dt))
            st["run_ids"][run_id] = cached
            makespan = payload["makespan_us"]
            st["sim_us"] += makespan
            if not cached:
                st["cold_payloads"].setdefault(idx, payload)
            prior = st["makespans"].setdefault(idx, makespan)
            if prior != makespan:
                st["failures"].append(f"{pool[idx]}: served makespan changed "
                                      f"{prior!r} -> {makespan!r}")
        st["end"] = time.perf_counter()
        st["thread_wall"] = st["end"] - t_begin

    def _request(self, server, rec, method, path, body=None):
        if rec is None:
            return http_call(server.host, server.port, method, path, body)
        with rec.span("client.http") as span:
            return http_call(server.host, server.port, method, path, body, parent=span.id)

    def _cycle(self, server, body, rec, st):
        status, raw = self._request(server, rec, "POST", "/v1/runs", body)
        if status not in (200, 202):
            return ("error", f"submit HTTP {status}: {raw[:200]!r}", None, None)
        sub = json.loads(raw)
        run_id, state = sub["run_id"], sub["status"]
        while state not in self.TERMINAL_OK:
            if state not in ("queued", "running"):
                return ("error", f"run {run_id} ended {state!r}", None, None)
            time.sleep(SERVICE_POLL_S)
            st["polls"] += 1
            status, raw = self._request(server, rec, "GET", f"/v1/runs/{run_id}")
            if status != 200:
                return ("error", f"poll HTTP {status}", None, None)
            state = json.loads(raw)["status"]
        status, raw = self._request(server, rec, "GET", f"/v1/runs/{run_id}/result")
        if status != 200:
            return ("error", f"result HTTP {status}", None, None)
        return ("hit" if sub["cached"] else "cold", "", run_id, json.loads(raw)["result"])

    # -- checks ----------------------------------------------------------------

    def verify(self, report: Report, ph: dict, label: str = "") -> None:
        """Failures, no re-execution on hits, and served == in-process."""
        from repro.experiments.base import run_simulation
        from repro.service.schemas import result_to_dict

        cycles = [cy for st in ph["clients"] for cy in st["cycles"]]
        failures = [f for st in ph["clients"] for f in st["failures"]]
        report.attempted += len(cycles)
        report.failed += sum(1 for _, cached, _ in cycles if cached is None)
        distinct = sum(len(st["makespans"]) for st in ph["clients"])
        colds = sum(1 for _, cached, _ in cycles if cached is False)
        executed = ph["stats"].get("dispatch", {}).get("executed_runs")
        report.check(
            f"service_no_reexecution{label}", executed == distinct == colds and not failures,
            f"executed_runs={executed}, distinct specs={distinct}, cold cycles={colds}, "
            f"failed cycles={len(failures)}" + (f"; first: {failures[0]}" if failures else ""),
        )
        candidates = sorted((st["client"], idx) for st in ph["clients"]
                            for idx in st["cold_payloads"])
        sample = random.Random(self.seed).sample(
            candidates, min(SERVICE_IDENTITY_SAMPLE, len(candidates)))
        mismatched = []
        for c, idx in sample:
            set_name, app, sched, sim_seed = self.pools[c][idx]
            spec = inputs.fig2_spec((set_name, app, sched), inputs.SERVICE_SCALE, sim_seed)
            local = json.loads(json.dumps(result_to_dict(run_simulation(spec))))
            served = ph["clients"][c]["cold_payloads"][idx]
            if local != served:
                mismatched.append(self.pools[c][idx])
        report.check(
            f"service_bit_identical{label}", bool(sample) and not mismatched,
            f"{len(sample) - len(mismatched)}/{len(sample)} sampled served results "
            "equal in-process run_simulation" + (f"; differ: {mismatched}" if mismatched else ""),
        )
        if mismatched:
            report.failed += len(mismatched)

    def run(self, trace: bool) -> Report:
        report = Report()
        seconds = self.seconds / 2 if trace else self.seconds
        a = self.phase(self.server, seconds, None)
        self.server.stop()
        self.verify(report, a, "_untraced" if trace else "")
        if not trace:
            self._end_to_end(report, a)
            return report
        self.server = Server(traced=True, tag=f"seed{self.seed}")
        rec = spans.Recorder()
        b = self.phase(self.server, seconds, rec)
        self.server.stop()
        self._layers(report, a, b, rec)
        return report

    def _end_to_end(self, report: Report, ph: dict) -> None:
        cycles = [cy for st in ph["clients"] for cy in st["cycles"]]
        ok = [dt for _, cached, dt in cycles if cached is not None]
        # A failed request misses every latency limit.
        every = ok + [math.inf] * (len(cycles) - len(ok))
        hits = [dt for _, cached, dt in cycles if cached is True]
        colds = [dt for _, cached, dt in cycles if cached is False]
        wall = ph["wall"]
        p50, tail, note = _timing(every)
        report.metric("sim_us_per_host_s", sum(st["sim_us"] for st in ph["clients"]) / wall,
                      "us/s", f"n={len(ok)} results served")
        report.metric("run_p50_ms", p50, "ms", note)
        report.metric("run_tail_ms", tail, "ms", note)
        report.metric("req_per_s", len(ok) / wall, "1/s",
                      f"n={len(ok)} cycles in {wall:.3f} s, 2 closed-loop clients")
        c50, ctail, cnote = _timing(colds)
        report.metric("cold_p50_ms", c50, "ms", cnote)
        report.metric("cold_tail_ms", ctail, "ms", cnote)
        h50, htail, hnote = _timing(hits)
        report.lines.append(f"hit_p50_ms = {h50:.4f} ms ({hnote})")
        report.lines.append(f"hit_tail_ms = {htail:.4f} ms ({hnote})")
        report.lines.append(f"hit share = {len(hits) / max(1, len(ok)):.4f}")
        report.metric("peak_rss_mb", _peak_rss_mb(True), "MB", "client + server")

    def _layers(self, report: Report, a: dict, b: dict, rec: spans.Recorder) -> None:
        with open(self.server.spans_out, encoding="utf-8") as fh:
            srv = json.load(fh)
        client = rec.snapshot()
        agg = {k: list(v) for k, v in srv["agg"].items()}
        for k, v in client["agg"].items():
            agg[k] = list(v)
        # Server request spans run inside the client's HTTP spans: the
        # client-side HTTP self time is transport only.
        request_s = srv["root_s"].get("request", 0.0)
        if "client.http" in agg:
            agg["client.http"][2] -= request_s
        # Lanes: each client thread plus the server's dispatcher thread.
        n_a = sum(len(st["cycles"]) for st in a["clients"])
        n_b = sum(len(st["cycles"]) for st in b["clients"])
        wall = sum(st["thread_wall"] for st in b["clients"]) + b["wall"]
        overhead = (b["wall"] / n_b) / (a["wall"] / n_a) - 1.0 if n_a and n_b else 0.0
        waits_ms = [w * 1e3 for w in srv["queue_waits"]]
        w_tail, _, _ = stats.tail(waits_ms)
        st_b = b["stats"].get("cache", {})
        polls = sum(st["polls"] for st in b["clients"])
        extra = {
            "service.cache_hit_ratio": st_b.get("hits", 0) / max(1, st_b.get("lookups", 0)),
            "service.queue.wait_p50_ms": stats.median(waits_ms),
            "service.queue.wait_tail_ms": w_tail,
            "client.polls_per_cycle": polls / max(1, n_b),
        }
        layer_metrics(report, agg, srv["counters"], wall, overhead, extra)
        report.lines.append(
            f"lanes: {len(b['clients'])} client threads + 1 dispatcher thread; "
            f"traced window {b['wall']:.3f} s")
        # Ledger: simulation counts per spec hash, store writes per cycle kind.
        ledger = dict(srv["ledger"])
        kinds: dict[str, set] = {"hit": set(), "cold": set()}
        for st in b["clients"]:
            for run_id, cached in st["run_ids"].items():
                kinds["hit" if cached else "cold"].add(srv["store_writes"].get(run_id, 0))
        conflicts = list(srv["ledger_conflicts"])
        for kind, seen in kinds.items():
            if len(seen) > 1:
                conflicts.append(f"{kind} cycles wrote {sorted(seen)} rows")
            elif seen:
                ledger[f"cycle.{kind}"] = {"store_writes": seen.pop()}
        check_ledger(report, "service_mix", self.seed, ledger, conflicts)
        self.verify(report, b, "_traced")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


# --------------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=["fig2_grid", "large_smp", "open_churn", "service_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.workload == "service_mix":
        workload = Service(args.seed, args.seconds)
    else:
        workload = Batch(args.workload, args.seed, args.seconds)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        report = workload.run(bool(args.trace))
    finally:
        workload.close()
    out = report.to_dict()
    out["env"] = _env_stamp()
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
