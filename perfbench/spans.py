"""Outside-in span recorder: wraps the program's public functions at runtime.

Nothing under ``src/`` is edited. :func:`install` replaces each listed
function or method with a wrapper that opens a span on entry and closes
it on exit; every module that imported the original by name gets the
wrapper too. A span's *self* time is its duration minus the time its
child spans cover. Spans nest per thread (a call stack), so children
never overlap and the covered time is the sum of their durations.

Aggregates (calls, total and self seconds per span name) are exact.
Raw spans — name, start, end, id and parent id — are kept in memory for
the two outermost levels of each thread's stack (deeper ones would cost
hundreds of megabytes on the hot path) and written out by :meth:`dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

#: (span name, module, qualified attribute). A class attribute is wrapped
#: on every class of the module that defines it in its own ``__dict__``
#: (subclass overrides included); same-name re-entry through ``super()``
#: is folded into the outer span.
TARGETS = (
    ("hw.bus.solve", "repro.hw.bus", "BusModel.solve"),
    ("hw.machine.advance_to", "repro.hw.machine", "Machine.advance_to"),
    ("hw.machine.horizon", "repro.hw.machine", "Machine.horizon"),
    ("hw.machine.dispatch", "repro.hw.machine", "Machine.dispatch"),
    ("sim.engine.run", "repro.sim.engine", "Engine.run"),
    ("sched.linux.goodness", "repro.sched.linux", "LinuxScheduler.goodness"),
    ("core.policies.select", "repro.core.policies", "*.select"),
    ("core.policies.select", "repro.core.policies_model", "*.select"),
    ("core.policies.on_sample", "repro.core.policies", "*.on_sample"),
    ("core.policies.on_sample", "repro.core.policies_model", "*.on_sample"),
    ("core.policies.on_quantum", "repro.core.policies", "*.on_quantum"),
    ("core.manager.register_app", "repro.core.manager", "CpuManager.register_app"),
    ("core.manager.disconnect_app", "repro.core.manager", "CpuManager.disconnect_app"),
    ("workloads.launch", "repro.workloads.base", "Application.launch"),
    ("dynamic.sample_times", "repro.dynamic.arrivals", "*.sample_times"),
    ("dynamic.mix.sample_many", "repro.dynamic.config", "*.sample_many"),
    ("dynamic.driver.stats", "repro.dynamic.driver", "OpenSystemDriver.stats"),
    ("metrics.collect_run_result", "repro.metrics.accounting", "collect_run_result"),
    ("metrics.streaming.observe", "repro.metrics.streaming", "StreamingQueueingStats.observe"),
    ("experiments.run_simulation", "repro.experiments.base", "run_simulation"),
    ("parallel.run_many", "repro.parallel", "run_many"),
    ("service.parse_submit_request", "repro.service.schemas", "parse_submit_request"),
    ("service.spec_hash", "repro.experiments.base", "SimulationSpec.spec_hash"),
    ("service.result_to_dict", "repro.service.schemas", "result_to_dict"),
    ("service.store.lookup_cached", "repro.service.store", "ResultStore.lookup_cached"),
    ("service.store.create", "repro.service.store", "ResultStore.create"),
    ("service.store.mark_cached", "repro.service.store", "ResultStore.mark_cached"),
    ("service.store.mark_running", "repro.service.store", "ResultStore.mark_running"),
    ("service.store.mark_done", "repro.service.store", "ResultStore.mark_done"),
    ("service.store.get_result", "repro.service.store", "ResultStore.get_result"),
)

#: Store methods that write a row, counted per run id for the ledger.
STORE_WRITES = ("create", "mark_cached", "mark_running", "mark_done")

#: Raw spans kept per process (outermost two stack levels only).
RAW_SPAN_CAP = 200_000

#: Header carrying the client's HTTP span id to the server.
PARENT_HEADER = "X-Perfbench-Parent"
_PARENT_ENVIRON = "HTTP_X_PERFBENCH_PARENT"

_clock = time.perf_counter


def lane_of(thread_name: str) -> str:
    """Root-span bucket of a thread: per-connection handler threads share one."""
    return "request" if thread_name.startswith("Thread-") else thread_name


class Recorder:
    """Per-process span store; thread-safe, one instance per process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._prefix = f"{os.getpid()}-"
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.root_s: dict[str, float] = {}  # lane -> root span seconds
        self.raw: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.ledger: dict[str, dict[str, int]] = {}
        self.ledger_conflicts: list[str] = []
        self.queue_waits: list[float] = []
        self.store_writes: dict[str, int] = {}
        self._offered: dict[str, float] = {}
        self._spec_keys: dict[int, str] = {}

    # -- per-thread state ----------------------------------------------------

    def _state(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.agg = {}
            tls.suppress = 0
            tls.run = None
        return tls

    def new_id(self) -> str:
        return f"{self._prefix}{next(self._ids)}"

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, parent: str | None = None):
        """Run ``fn`` inside a span called ``name``."""
        tls = self._state()
        stack = tls.stack
        if tls.suppress or (stack and stack[-1][0] == name):
            return fn(*args, **kwargs)
        sid = self.new_id() if len(stack) < 2 else None
        frame = [name, _clock(), 0.0, sid]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            self._close(tls, frame, end, parent)

    def _close(self, tls, frame, end: float, parent: str | None) -> None:
        name, start, child_s, sid = frame
        dur = end - start
        entry = tls.agg.get(name)
        if entry is None:
            entry = tls.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child_s
        stack = tls.stack
        if stack:
            stack[-1][2] += dur
        if sid is not None:
            up = parent if parent is not None else (stack[-1][3] if stack else None)
            if len(self.raw) < RAW_SPAN_CAP:
                self.raw.append((name, start, end, sid, up, threading.current_thread().name))
        if not stack:
            self._merge(tls, dur)

    def _merge(self, tls, root_dur: float) -> None:
        thread = lane_of(threading.current_thread().name)
        with self._lock:
            for name, (calls, total, self_s) in tls.agg.items():
                entry = self.agg.get(name)
                if entry is None:
                    self.agg[name] = [calls, total, self_s]
                else:
                    entry[0] += calls
                    entry[1] += total
                    entry[2] += self_s
            self.root_s[thread] = self.root_s.get(thread, 0.0) + root_dur
        tls.agg = {}

    def span(self, name: str, parent: str | None = None) -> "_Span":
        """A context-manager span for the benchmark's own code."""
        return _Span(self, name, parent)

    # -- counters and ledger -------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def run_counter(self, key: str, n: int = 1) -> None:
        """Add to the ledger entry of the simulation running on this thread."""
        run = self._state().run
        if run is not None:
            run[key] = run.get(key, 0) + n

    def record_run(self, key: str | None, entry: dict[str, int]) -> None:
        """File one simulation's counts; a key seen before must repeat exactly."""
        if key is None:
            return
        with self._lock:
            prior = self.ledger.get(key)
            if prior is None:
                self.ledger[key] = entry
            elif prior != entry:
                self.ledger_conflicts.append(key)

    def snapshot(self) -> dict:
        """Everything recorded so far, JSON-ready."""
        with self._lock:
            return {
                "agg": {k: list(v) for k, v in self.agg.items()},
                "root_s": dict(self.root_s),
                "counters": dict(self.counters),
                "ledger": dict(self.ledger),
                "ledger_conflicts": list(self.ledger_conflicts),
                "queue_waits": list(self.queue_waits),
                "store_writes": dict(self.store_writes),
            }

    def dump(self, path: str) -> None:
        """Write the snapshot to ``path`` and the raw spans beside it."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)
        with open(path + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, sid, parent, thread in self.raw:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "id": sid, "parent": parent, "thread": thread,
                }) + "\n")


class _Span:
    __slots__ = ("rec", "name", "parent", "frame", "tls", "id")

    def __init__(self, rec: Recorder, name: str, parent: str | None) -> None:
        self.rec, self.name, self.parent = rec, name, parent

    def __enter__(self) -> "_Span":
        self.tls = self.rec._state()
        self.id = self.rec.new_id()
        self.frame = [self.name, _clock(), 0.0, self.id]
        self.tls.stack.append(self.frame)
        return self

    def __exit__(self, *exc) -> None:
        end = _clock()
        self.tls.stack.pop()
        self.rec._close(self.tls, self.frame, end, self.parent)


# --------------------------------------------------------------------------- install


def _spanned(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs)

    return wrapper


def _hooked(rec: Recorder, name: str, fn):
    """Span wrappers with extra bookkeeping for counters and the ledger."""
    if name == "experiments.run_simulation":

        @functools.wraps(fn)
        def wrapper(spec, *args, **kwargs):
            tls = rec._state()
            outer = tls.run
            tls.run = {}
            try:
                result = rec.call(name, fn, (spec,) + args, kwargs)
            finally:
                run, tls.run = tls.run, outer
            entry = {
                "events_fired": run.get("events_fired", 0),
                "bus_solve_calls": result.bus_solve_calls,
                "solver_steps": result.bus_bisection_steps,
                "select_calls": run.get("select_calls", 0),
            }
            for key, value in (
                ("events_fired", entry["events_fired"]),
                ("bus_solve_calls", result.bus_solve_calls),
                ("bus_cache_hits", result.bus_cache_hits),
                ("solver_steps", result.bus_bisection_steps),
                ("solve_skips", result.solve_skips),
                ("lane_rebuilds", result.lane_rebuilds),
            ):
                rec.count(key, value)
            rec.record_run(rec._spec_keys.pop(id(spec), None), entry)
            return result

    elif name == "sim.engine.run":

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            before = self.events_fired
            try:
                return rec.call(name, fn, (self,) + args, kwargs)
            finally:
                rec.run_counter("events_fired", self.events_fired - before)

    elif name == "core.policies.select":

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tls = rec._state()
            if not (tls.stack and tls.stack[-1][0] == name):
                rec.run_counter("select_calls")
            return rec.call(name, fn, args, kwargs)

    elif name.startswith("service.store.") and name.rsplit(".", 1)[1] in STORE_WRITES:

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            out = rec.call(name, fn, (self,) + args, kwargs)
            run_id = out.run_id if name.endswith(".create") else (
                args[0] if args else kwargs["run_id"])
            with rec._lock:
                rec.store_writes[run_id] = rec.store_writes.get(run_id, 0) + 1
            return out

    else:
        return _spanned(rec, name, fn)
    return wrapper


def _replace_everywhere(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(rec: Recorder) -> None:
    """Wrap every :data:`TARGETS` entry and the service request/queue hooks."""
    import importlib

    # Modules imported later bind the wrappers when they import the names;
    # _replace_everywhere rebinds the ones already imported.
    for _, module, _ in TARGETS:
        importlib.import_module(module)
    for name, module, qual in TARGETS:
        mod = sys.modules[module]
        if "." not in qual:
            fn = getattr(mod, qual)
            _replace_everywhere(fn, _hooked(rec, name, fn))
            continue
        cls_name, attr = qual.split(".")
        classes = (
            [c for c in vars(mod).values()
             if isinstance(c, type) and c.__module__ == module and attr in vars(c)]
            if cls_name == "*" else [getattr(mod, cls_name)]
        )
        for cls in classes:
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(_hooked(rec, name, raw.__func__)))
            else:
                setattr(cls, attr, _hooked(rec, name, raw))
    _install_service_hooks(rec)


def _install_service_hooks(rec: Recorder) -> None:
    """Request spans linked to the client, and queue-wait timing."""
    from repro.service import api, jobs

    make_app = api.create_wsgi_app

    def create_wsgi_app(service):
        app = make_app(service)

        def traced_app(environ, start_response):
            parent = environ.get(_PARENT_ENVIRON)
            if parent is None:
                # Control traffic (stats queries) stays outside the trace.
                tls = rec._state()
                tls.suppress += 1
                try:
                    return app(environ, start_response)
                finally:
                    tls.suppress -= 1
            return rec.call("service.api.request", app,
                            (environ, start_response), {}, parent=parent)

        return traced_app

    _replace_everywhere(make_app, create_wsgi_app)

    queue_cls = jobs.FairQueue
    offer, take_batch = queue_cls.offer, queue_cls.take_batch

    @functools.wraps(offer)
    def traced_offer(self, job):
        # Stamped before the offer: the dispatcher may take the job at once.
        with rec._lock:
            rec._offered[job.run_id] = _clock()
        try:
            return offer(self, job)
        except Exception:
            with rec._lock:
                rec._offered.pop(job.run_id, None)
            raise

    @functools.wraps(take_batch)
    def traced_take_batch(self, *args, **kwargs):
        batch = take_batch(self, *args, **kwargs)
        now = _clock()
        with rec._lock:
            for job in batch:
                t0 = rec._offered.pop(job.run_id, None)
                if t0 is not None:
                    rec.queue_waits.append(now - t0)
                rec._spec_keys[id(job.spec)] = job.spec_hash
        return batch

    queue_cls.offer = traced_offer
    queue_cls.take_batch = traced_take_batch


def key_spec(rec: Recorder, spec, key: str) -> None:
    """Name the ledger entry of the next simulation of ``spec``."""
    rec._spec_keys[id(spec)] = key
