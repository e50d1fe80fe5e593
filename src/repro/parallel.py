"""Parallel experiment fan-out: run independent simulations on all cores.

Every experiment harness in :mod:`repro.experiments` reduces to a grid of
independent :class:`~repro.experiments.base.SimulationSpec` cells —
(application × configuration × policy × seed) — and bandwidth-aware
scheduling studies are embarrassingly parallel across that grid (Eremeev
et al., arXiv:2010.16058, evaluate exactly such grids). :func:`run_many`
is the single dispatch point: it executes a list of specs either serially
in-process or fanned out over a :class:`concurrent.futures.
ProcessPoolExecutor` in *chunks* (several specs per worker task, so each
worker amortises fork/pickle overhead across its chunk), and guarantees
the paths are *bit-identical*:

* **Deterministic ordering** — results are returned in spec order no
  matter which worker finishes first.
* **Per-task seeding** — every spec carries its own root seed; no random
  state is shared between tasks (or with the parent process).
* **Run-local identity** — the experiment runner assigns app ids and
  target-name ordering per run, so a result does not depend on which
  process (or how many prior simulations in that process) produced it.

Worker processes are forked, so the cheap platform check
:func:`fork_available` gates the pool: platforms without ``fork`` (or
``jobs=1``) fall back to the serial path, with a warning on the
``repro.parallel`` logger. Exceptions raised inside a worker propagate to
the caller.

The parallel path is one supervised dispatch loop: a worker that dies
mid-batch does not abort the batch; its unfinished specs re-run one at a
time in isolation (see :class:`SupervisionConfig`). Callers that pass no
config get crash isolation with no wall-clock deadline.

Usage::

    specs = [SimulationSpec(...), SimulationSpec(...), ...]
    results = run_many(specs, jobs=4, progress=lambda done, n: ...)

The ``collect`` hook supports harnesses that need more than the
:class:`~repro.metrics.accounting.RunResult` (e.g. EXT-IO reads I/O wait
counts off the live handle): a module-level function applied to
``(result, handle)`` *inside the worker*; its picklable return value is
paired with each result.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .errors import RunTimeoutError, WorkerCrashError
from .experiments.base import (
    SimulationSpec,
    run_simulation,
    run_simulation_with_handle,
)
from .metrics.accounting import RunResult

__all__ = [
    "run_many",
    "default_jobs",
    "fork_available",
    "resolve_jobs",
    "auto_chunk_size",
    "usable_cpus",
    "cgroup_cpu_quota",
    "effective_cpu_budget",
    "SupervisionConfig",
]

#: Callback invoked as tasks complete: ``progress(done, total)``.
ProgressFn = Callable[[int, int], None]

#: Worker-side post-processor: ``collect(result, handle) -> picklable``.
CollectFn = Callable[..., Any]

_log = logging.getLogger(__name__)


def fork_available() -> bool:
    """Whether this platform can fork worker processes.

    Fork workers inherit ``sys.path`` and module state, so they work under
    any invocation (``PYTHONPATH=src``, editable installs, test runners).
    Spawn-based pools would re-import ``repro`` from scratch and are not
    supported — :func:`run_many` falls back to serial instead.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def default_jobs() -> int:
    """Default worker count: ``REPRO_JOBS`` env var, else 1 (serial)."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return resolve_jobs(int(env))
        except ValueError:
            pass
    return 1


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def cgroup_cpu_quota() -> float | None:
    """Effective CPU quota from the cgroup (v2 then v1), in cores.

    Containers often present many CPUs in the affinity mask while the
    cgroup throttles the process to a fraction of one — ``jobs <= 0``
    ("all cores") sized off the raw count would then oversubscribe a
    budget of one or two cores with dozens of forked workers. Returns
    ``None`` when no quota applies (or no cgroup files exist, e.g.
    non-Linux).
    """
    try:  # cgroup v2: "max 100000" or "<quota_us> <period_us>"
        with open("/sys/fs/cgroup/cpu.max", encoding="ascii") as fh:
            quota, period = fh.read().split()
            if quota != "max" and float(period) > 0:
                return float(quota) / float(period)
            return None
    except (OSError, ValueError):
        pass
    try:  # cgroup v1
        base = "/sys/fs/cgroup/cpu"
        with open(f"{base}/cpu.cfs_quota_us", encoding="ascii") as fh:
            quota = float(fh.read())
        with open(f"{base}/cpu.cfs_period_us", encoding="ascii") as fh:
            period = float(fh.read())
        if quota > 0 and period > 0:
            return quota / period
    except (OSError, ValueError):
        pass
    return None


def effective_cpu_budget() -> int:
    """Worker count this process can truly use: affinity ∩ cgroup quota.

    The intersection of the scheduler affinity mask and the cgroup CPU
    quota (rounded down to whole cores), floored at 1. This is what
    ``jobs <= 0`` resolves to — never the raw ``os.cpu_count()``, which
    counts CPUs the container cannot touch.
    """
    budget = usable_cpus()
    quota = cgroup_cpu_quota()
    if quota is not None:
        budget = min(budget, int(math.floor(quota)))
    return max(1, budget)


def resolve_jobs(jobs: int | None, n_specs: int | None = None) -> int:
    """Normalize a ``jobs`` request: ``None`` → env default, ``<= 0`` → all cores.

    "All cores" means :func:`effective_cpu_budget` — the affinity mask
    intersected with the cgroup CPU quota — not the raw ``os.cpu_count()``.
    When ``n_specs`` is given the result is additionally clamped to the
    number of specs — spawning more workers than tasks only pays fork cost
    for processes that will never receive work.
    """
    if jobs is None:
        resolved = default_jobs()
    elif jobs <= 0:
        resolved = effective_cpu_budget()
    else:
        resolved = jobs
    if n_specs is not None:
        resolved = max(1, min(resolved, n_specs))
    return resolved


def auto_chunk_size(total: int, n_jobs: int) -> int:
    """Default dispatch chunk: ≈ ``total / (4 · n_jobs)`` specs per task.

    Four chunks per worker balances fork/pickle amortisation against
    load-balancing slack when spec runtimes are uneven. Never below 1.
    """
    return max(1, total // (4 * max(1, n_jobs)))


@dataclass(frozen=True)
class SupervisionConfig:
    """Worker-supervision policy for the parallel :func:`run_many` path.

    Every parallel run is supervised. A worker process dying mid-batch
    (``BrokenProcessPool`` — e.g. an OOM kill or an external SIGKILL) or a
    worker exceeding its wall-clock budget does not abort the whole
    batch: the supervisor harvests every already-completed run, then
    re-executes the unfinished specs one at a time in *isolation* (a fresh
    single-worker pool per attempt) with bounded exponential-backoff
    retries. Because simulations are deterministic functions of their
    spec, a retry re-executes the identical run — a result produced on
    attempt three is bit-identical to a first-try result. A spec that
    keeps crashing (or hanging) its isolation worker raises a typed
    :class:`~repro.errors.WorkerCrashError` /
    :class:`~repro.errors.RunTimeoutError` carrying the spec index and
    attempt count once ``max_attempts`` is reached, so callers can
    quarantine exactly that spec and keep the rest.

    Timeouts derive from observed behaviour: each chunk's wall-clock
    budget is ``specs_in_chunk × clamp(timeout_factor × max(observed
    per-spec wall times), floor, ceiling)`` — before any spec has
    completed, the ceiling applies. An infinite floor and ceiling set no
    deadline at all; that is the policy of callers that pass no config
    (:data:`_NO_DEADLINE`). Every other field must be a finite number.
    Supervision is inert on the serial path (an in-process run cannot be
    preempted or crash in isolation), which is also why its fault-free
    overhead is ~zero there (gated by ``benchmarks/bench_supervision.py``).

    Attributes
    ----------
    max_attempts:
        Isolation executions per spec before the typed error is raised.
        The phase-1 batch execution that *detects* a failure is not
        charged to any spec (a broken pool cannot name its killer);
        attempts count attributable isolation runs only.
    timeout_floor_s / timeout_ceiling_s:
        Clamp on the derived per-spec timeout, seconds.
    timeout_factor:
        Multiple of the largest observed per-spec wall time.
    backoff_base_s / backoff_max_s:
        Exponential backoff between isolation attempts:
        ``min(base × 2^(attempt-1), max)`` seconds.
    poll_s:
        Supervisor wake-up interval while watching deadlines.
    """

    max_attempts: int = 3
    timeout_floor_s: float = 30.0
    timeout_ceiling_s: float = 600.0
    timeout_factor: float = 8.0
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    poll_s: float = 0.05

    def __post_init__(self) -> None:
        for name in ("timeout_floor_s", "timeout_ceiling_s"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")
        for name in ("timeout_factor", "backoff_base_s", "backoff_max_s", "poll_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 < self.timeout_floor_s <= self.timeout_ceiling_s:
            raise ValueError(
                "need 0 < timeout_floor_s <= timeout_ceiling_s, got "
                f"{self.timeout_floor_s}..{self.timeout_ceiling_s}"
            )
        if self.timeout_factor <= 0.0:
            raise ValueError(f"timeout_factor must be > 0, got {self.timeout_factor}")
        if self.backoff_base_s < 0.0 or self.backoff_max_s < self.backoff_base_s:
            raise ValueError(
                "need 0 <= backoff_base_s <= backoff_max_s, got "
                f"{self.backoff_base_s}..{self.backoff_max_s}"
            )
        if self.poll_s <= 0.0:
            raise ValueError(f"poll_s must be > 0, got {self.poll_s}")

    def timeout_for(self, observed_walls: Sequence[float]) -> float:
        """Per-spec wall-clock budget given the walls observed so far."""
        if not observed_walls:
            return self.timeout_ceiling_s
        derived = self.timeout_factor * max(observed_walls)
        return min(max(derived, self.timeout_floor_s), self.timeout_ceiling_s)

    def backoff_for(self, attempt: int) -> float:
        """Sleep before retrying after the ``attempt``-th failure."""
        return min(self.backoff_base_s * (2.0 ** max(0, attempt - 1)), self.backoff_max_s)


#: The policy of a parallel :func:`run_many` given no config: crash
#: isolation and retries, never a wall-clock deadline.
_NO_DEADLINE = SupervisionConfig(timeout_floor_s=math.inf, timeout_ceiling_s=math.inf)


def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
    """Forcibly kill a pool's worker processes (hung-worker teardown).

    Reaches into the executor's ``_processes`` map (stable across CPython
    versions we support); guarded so a layout change degrades to leaking
    a worker rather than raising. SIGKILL, not SIGTERM: a worker stuck in
    a hot loop may never reach a Python signal handler.
    """
    workers = getattr(pool, "_processes", None) or {}
    for proc in list(workers.values()):
        try:
            proc.kill()
        except Exception:  # pragma: no cover - teardown best-effort
            pass


def _chaos_kill_check(spec: SimulationSpec) -> None:
    """Test hook: crash or hang this process when executing a marked spec.

    Armed only when ``REPRO_CHAOS_KILL_SPEC`` (SIGKILL the worker) or
    ``REPRO_CHAOS_HANG_SPEC`` (sleep far past any timeout) names the
    spec's hash — the chaos harness and supervision tests use these to
    make worker death and hung workers deterministic. With
    ``REPRO_CHAOS_KILL_ONCE_DIR`` set, each fault fires once per hash (a
    marker file makes retries succeed), which is how retry bit-identity
    is exercised. Unset in production: the cost is two environment
    lookups per spec.
    """
    kill = os.environ.get("REPRO_CHAOS_KILL_SPEC")
    hang = os.environ.get("REPRO_CHAOS_HANG_SPEC")
    if not kill and not hang:
        return
    spec_hash = spec.spec_hash()

    def _armed(target: str | None, tag: str) -> bool:
        if not target or spec_hash != target:
            return False
        once_dir = os.environ.get("REPRO_CHAOS_KILL_ONCE_DIR")
        if once_dir:
            marker = os.path.join(once_dir, f"{target}.{tag}")
            if os.path.exists(marker):
                return False
            with open(marker, "w", encoding="ascii"):
                pass
        return True

    if _armed(kill, "kill"):
        os.kill(os.getpid(), signal.SIGKILL)
    if _armed(hang, "hang"):
        time.sleep(3600.0)


def _execute(
    task: tuple[int, SimulationSpec, CollectFn | None],
) -> tuple[int, RunResult, Any, float]:
    """Run one spec (worker side). Shared by the serial and parallel paths.

    Returns ``(index, result, aux, wall_s)`` with the spec's own execution
    wall time measured inside the worker — fork/pickle/dispatch overhead
    excluded, so per-run timings stored by the service reflect simulation
    cost only.
    """
    index, spec, collect = task
    _chaos_kill_check(spec)
    start = time.perf_counter()
    if collect is None:
        result, aux = run_simulation(spec), None
    else:
        result, handle = run_simulation_with_handle(spec)
        aux = collect(result, handle)
    return index, result, aux, time.perf_counter() - start


def _execute_chunk(
    chunk: Sequence[tuple[int, SimulationSpec, CollectFn | None]],
) -> list[tuple[int, RunResult, Any, float]]:
    """Run a chunk of specs sequentially (worker side)."""
    return [_execute(task) for task in chunk]


def run_many(
    specs: Sequence[SimulationSpec],
    jobs: int | None = 1,
    progress: ProgressFn | None = None,
    collect: CollectFn | None = None,
    chunk_size: int | None = None,
    on_result: Callable[[int, RunResult, float], None] | None = None,
    cancel: Callable[[], bool] | None = None,
    supervise: SupervisionConfig | None = None,
) -> list:
    """Run every spec and return results in spec order.

    Parameters
    ----------
    specs:
        The simulation grid. Each spec is self-contained (including its
        seed); tasks share nothing.
    jobs:
        Worker processes. ``1`` (default) runs serially in-process;
        ``None`` reads the ``REPRO_JOBS`` env var; ``<= 0`` uses every
        core. Jobs are clamped to ``len(specs)``, and platforms without
        ``fork`` run serially regardless (logged as a warning on the
        ``repro.parallel`` logger).
    progress:
        Optional ``progress(done, total)`` callback, invoked in the parent
        as specs complete (in completion order; once per finished chunk in
        parallel mode, with ``done`` counting finished *specs*).
    collect:
        Optional module-level ``collect(result, handle)`` function run in
        the worker; when given, the return value is ``[(result, aux), ...]``
        instead of ``[result, ...]``.
    chunk_size:
        Specs per worker task. ``None`` picks :func:`auto_chunk_size`
        (≈ ``total / (4 · jobs)``). Larger chunks amortise fork/IPC cost;
        chunking never changes results — only dispatch granularity.
        Must be ``>= 1`` on every path.
    on_result:
        Optional ``on_result(index, result, wall_s)`` callback, invoked in
        the parent as each spec completes (completion order, not spec
        order) with the spec's position in ``specs`` and its worker-side
        execution wall time. The service's result store hangs off this:
        results persist as they land rather than when the whole batch
        returns.
    cancel:
        Optional ``cancel() -> bool`` poll, checked between specs on the
        serial path and before dispatching each chunk on the parallel
        path. Once it returns true no further specs are started;
        already-dispatched chunks finish (their results are still
        reported). Unstarted specs stay ``None`` in the returned list.
    supervise:
        The :class:`SupervisionConfig` of the parallel path. Every
        parallel run is supervised: worker death (and, with finite
        timeouts, a spec over its wall-clock budget) is survived,
        completed runs are harvested, unfinished specs re-run one at a
        time in isolation with bounded retries, and a spec that keeps
        failing raises :class:`~repro.errors.WorkerCrashError` or
        :class:`~repro.errors.RunTimeoutError` carrying its index and
        attempt count. ``None`` isolates crashes but sets no deadline.
        Inert on the serial path — an in-process run cannot be
        preempted, and nothing is retried.

    Raises
    ------
    WorkerCrashError, RunTimeoutError
        Parallel path only: one spec exhausted its attempt cap. Every run
        that completed before the raise was already delivered through
        ``on_result``.

    Returns
    -------
    list
        ``RunResult`` per spec — or ``(RunResult, aux)`` pairs with
        ``collect`` — in the exact order of ``specs``, identical between
        serial and parallel execution (and any chunk size). Entries for
        specs skipped by ``cancel`` are ``None``.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    total = len(specs)
    n_jobs = resolve_jobs(jobs, total)
    tasks = [(i, spec, collect) for i, spec in enumerate(specs)]
    out: list[Any] = [None] * total

    def _record(index: int, result: RunResult, aux: Any, wall_s: float) -> None:
        out[index] = (result, aux) if collect is not None else result
        if on_result is not None:
            on_result(index, result, wall_s)

    if n_jobs <= 1 or total <= 1 or not fork_available():
        if n_jobs > 1 and total > 1:
            _log.warning("fork unavailable: falling back to serial execution")
        for done, task in enumerate(tasks, start=1):
            if cancel is not None and cancel():
                break
            _record(*_execute(task))
            if progress is not None:
                progress(done, total)
        return out

    chunk = chunk_size if chunk_size is not None else auto_chunk_size(total, n_jobs)
    chunks = [tasks[i : i + chunk] for i in range(0, total, chunk)]
    _run_supervised(
        chunks,
        n_jobs,
        multiprocessing.get_context("fork"),
        supervise if supervise is not None else _NO_DEADLINE,
        _record,
        progress,
        total,
        cancel,
    )
    return out


def _run_supervised(
    chunks: list,
    n_jobs: int,
    ctx,
    sup: SupervisionConfig,
    record: Callable[[int, RunResult, Any, float], None],
    progress: ProgressFn | None,
    total: int,
    cancel: Callable[[], bool] | None,
) -> None:
    """The parallel dispatch loop: survive worker death and hangs.

    Phase 1 runs the chunked pool with the submission window clamped to
    ``n_jobs`` (submitted == executing, so a chunk's deadline clock only
    runs while a worker actually holds it) and a deadline per in-flight
    chunk of ``len(chunk) × timeout_for(observed walls)``. A
    ``BrokenProcessPool`` or an expired deadline ends phase 1: completed
    futures are harvested, hung workers are SIGKILLed, and the surviving
    results keep their landed state. While no finite deadline is pending
    the loop blocks until a chunk finishes instead of polling.

    Phase 2 re-executes each unfinished spec *one at a time* in a fresh
    single-worker pool, so a crash or timeout attributes to exactly that
    spec. Each isolation run counts as one attempt; after
    ``sup.max_attempts`` failures the typed error is raised with the spec
    index (the unattributable phase-1 failure is charged to no spec).
    Deterministic exceptions raised *by* a spec propagate as themselves,
    unretried — supervision covers the execution substrate, not the
    simulation's own contract. Such an exception stops new dispatches;
    the chunks already running finish and land before it is re-raised.
    """
    task_by_index = {task[0]: task for chunk in chunks for task in chunk}
    unfinished = set(task_by_index)
    walls: list[float] = []
    done_count = 0
    failure: BaseException | None = None
    crashed = timed_out = False

    def _land(rows) -> None:
        nonlocal done_count
        for index, result, aux, wall_s in rows:
            record(index, result, aux, wall_s)
            walls.append(wall_s)
            unfinished.discard(index)
            done_count += 1
        if progress is not None:
            progress(done_count, total)

    with ProcessPoolExecutor(max_workers=n_jobs, mp_context=ctx) as pool:
        backlog = list(reversed(chunks))
        pending: dict = {}  # future -> deadline (monotonic seconds)

        def _refill() -> None:
            while backlog and len(pending) < n_jobs:
                if cancel is not None and cancel():
                    backlog.clear()
                    break
                next_chunk = backlog.pop()
                deadline = time.monotonic() + len(next_chunk) * sup.timeout_for(walls)
                pending[pool.submit(_execute_chunk, next_chunk)] = deadline

        _refill()
        while pending:
            poll = sup.poll_s if math.isfinite(min(pending.values())) else None
            finished, _ = wait(set(pending), timeout=poll, return_when=FIRST_COMPLETED)
            for future in finished:
                pending.pop(future, None)
                try:
                    rows = future.result()
                except BrokenProcessPool:
                    crashed = True
                    continue
                except Exception as exc:
                    # The spec's own deterministic failure: no retry. Stop
                    # submitting, drain what is already running, re-raise.
                    if failure is None:
                        failure = exc
                    backlog.clear()
                    continue
                _land(rows)
            if crashed:
                break
            if not finished and pending and min(pending.values()) <= time.monotonic():
                timed_out = True
                _kill_pool_workers(pool)
                break
            _refill()

        # Harvest stragglers that finished before the pool broke; the rest
        # hold BrokenProcessPool and are swallowed here (phase 2 owns them).
        for future in list(pending):
            if future.done():
                try:
                    _land(future.result())
                except Exception:
                    pass
        pool.shutdown(wait=True, cancel_futures=True)

    if failure is not None:
        raise failure
    if not (crashed or timed_out):
        return  # everything landed (or cancel() stopped submissions)

    _log.warning(
        "%s detected: isolating %d unfinished spec(s)",
        "worker crash" if crashed else "worker timeout",
        len(unfinished),
    )

    for index in sorted(unfinished):
        if cancel is not None and cancel():
            break  # remaining specs stay None, as after a phase-1 cancel
        task = task_by_index[index]
        attempt = 0
        while True:
            attempt += 1
            timeout_s = sup.timeout_for(walls)
            pool = ProcessPoolExecutor(max_workers=1, mp_context=ctx)
            outcome: str | None = None
            try:
                future = pool.submit(_execute_chunk, [task])
                # ``wait`` overflows on an infinite timeout: block instead.
                budget = timeout_s if math.isfinite(timeout_s) else None
                done_set, _ = wait({future}, timeout=budget)
                if not done_set:
                    _kill_pool_workers(pool)
                    outcome = "timeout"
                else:
                    try:
                        _land(future.result())
                    except BrokenProcessPool:
                        outcome = "crash"
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
            if outcome is None:
                break
            if attempt >= sup.max_attempts:
                if outcome == "timeout":
                    raise RunTimeoutError(index, attempt, timeout_s)
                raise WorkerCrashError(index, attempt)
            time.sleep(sup.backoff_for(attempt))
