"""Unit tests for the experiment fan-out executor (`repro.parallel`)."""

import logging
import math
import re

import pytest

from repro.config import MachineConfig
from repro.errors import (
    ConfigError,
    RunTimeoutError,
    SimulationError,
    WorkerCrashError,
)
from repro.experiments.base import SimulationSpec, solo_spec
from repro.parallel import (
    SupervisionConfig,
    auto_chunk_size,
    cgroup_cpu_quota,
    default_jobs,
    effective_cpu_budget,
    fork_available,
    resolve_jobs,
    run_many,
    usable_cpus,
)
from repro.workloads.microbench import bbma_spec, nbbma_spec

_SCALE = 0.02


def _specs(n: int = 3) -> list[SimulationSpec]:
    makers = [bbma_spec, nbbma_spec]
    return [
        solo_spec(makers[i % 2](work_us=10_000.0 + 1_000.0 * i), seed=i + 1)
        for i in range(n)
    ]


def _collect_makespan(result, handle):
    return (result.makespan_us, handle.machine.now)


class TestResolveJobs:
    def test_explicit_positive(self):
        assert resolve_jobs(3) == 3

    def test_zero_means_effective_budget(self):
        # "All cores" is the affinity ∩ cgroup-quota budget, NOT the raw
        # os.cpu_count() — a container throttled to 2 cores on a 64-CPU
        # host must resolve to 2, not 64.
        assert resolve_jobs(0) == effective_cpu_budget()

    def test_budget_is_affinity_when_unquotaed(self, monkeypatch):
        import repro.parallel as par

        monkeypatch.setattr(par, "usable_cpus", lambda: 6)
        monkeypatch.setattr(par, "cgroup_cpu_quota", lambda: None)
        assert par.effective_cpu_budget() == 6

    def test_budget_clamped_by_cgroup_quota(self, monkeypatch):
        import repro.parallel as par

        monkeypatch.setattr(par, "usable_cpus", lambda: 64)
        monkeypatch.setattr(par, "cgroup_cpu_quota", lambda: 2.5)
        assert par.effective_cpu_budget() == 2  # floor of fractional quota
        assert par.resolve_jobs(0) == 2
        assert par.resolve_jobs(-1) == 2

    def test_budget_floor_is_one(self, monkeypatch):
        import repro.parallel as par

        monkeypatch.setattr(par, "usable_cpus", lambda: 8)
        monkeypatch.setattr(par, "cgroup_cpu_quota", lambda: 0.5)
        assert par.effective_cpu_budget() == 1

    def test_budget_helpers_sane_on_this_host(self):
        assert usable_cpus() >= 1
        quota = cgroup_cpu_quota()
        assert quota is None or quota > 0
        assert 1 <= effective_cpu_budget() <= usable_cpus()

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_env_garbage_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert default_jobs() == 1

    def test_env_unset_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    def test_clamped_to_spec_count(self):
        assert resolve_jobs(16, n_specs=3) == 3
        assert resolve_jobs(2, n_specs=10) == 2

    def test_clamp_never_below_one(self):
        assert resolve_jobs(4, n_specs=0) == 1


class TestAutoChunkSize:
    def test_four_chunks_per_worker(self):
        assert auto_chunk_size(64, 4) == 4
        assert auto_chunk_size(100, 5) == 5

    def test_small_grids_get_unit_chunks(self):
        assert auto_chunk_size(3, 2) == 1
        assert auto_chunk_size(1, 8) == 1
        assert auto_chunk_size(0, 4) == 1


class TestRunMany:
    def test_empty(self):
        assert run_many([], jobs=4) == []

    def test_serial_matches_parallel_in_order(self):
        specs = _specs(4)
        serial = run_many(specs, jobs=1)
        parallel = run_many(specs, jobs=3)
        assert serial == parallel
        assert [r.makespan_us for r in serial] == [r.makespan_us for r in parallel]

    def test_progress_called_once_per_task(self):
        specs = _specs(3)
        calls: list[tuple[int, int]] = []
        run_many(specs, jobs=1, progress=lambda d, t: calls.append((d, t)))
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_progress_called_in_parallel_mode(self):
        if not fork_available():
            pytest.skip("no fork on this platform")
        specs = _specs(3)
        calls: list[tuple[int, int]] = []
        run_many(specs, jobs=2, progress=lambda d, t: calls.append((d, t)))
        assert sorted(d for d, _ in calls) == [1, 2, 3]
        assert all(t == 3 for _, t in calls)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_collect_pairs_results(self, jobs):
        specs = _specs(2)
        pairs = run_many(specs, jobs=jobs, collect=_collect_makespan)
        assert len(pairs) == 2
        for result, (makespan, machine_now) in pairs:
            assert result.makespan_us == makespan == machine_now

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_errors_propagate(self, jobs):
        bad = SimulationSpec(targets=[], scheduler="linux")
        with pytest.raises(ConfigError):
            run_many([bad], jobs=jobs)
        specs = _specs(2) + [
            SimulationSpec(
                targets=[bbma_spec(work_us=10_000.0)],
                scheduler="dedicated",
                machine=MachineConfig(),
                max_time_us=1.0,  # too short: the run cannot finish
            )
        ]
        with pytest.raises(SimulationError):
            run_many(specs, jobs=jobs)

    def test_more_jobs_than_specs(self):
        specs = _specs(2)
        assert run_many(specs, jobs=16) == run_many(specs, jobs=1)


class TestChunkedDispatch:
    def test_explicit_chunk_size_matches_serial(self):
        if not fork_available():
            pytest.skip("no fork on this platform")
        specs = _specs(5)
        serial = run_many(specs, jobs=1)
        for chunk in (1, 2, 5):
            assert run_many(specs, jobs=2, chunk_size=chunk) == serial

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_invalid_chunk_size_rejected(self, jobs):
        # Checked before the path is chosen: the serial path (and a host
        # without fork) rejects it too.
        with pytest.raises(ValueError):
            run_many(_specs(3), jobs=jobs, chunk_size=0)

    def test_chunked_progress_counts_specs(self):
        if not fork_available():
            pytest.skip("no fork on this platform")
        specs = _specs(4)
        calls: list[tuple[int, int]] = []
        run_many(specs, jobs=2, chunk_size=2, progress=lambda d, t: calls.append((d, t)))
        # two chunks of two specs: done counts finished specs, not chunks
        assert sorted(d for d, _ in calls) == [2, 4]
        assert all(t == 4 for _, t in calls)

    def test_chunked_collect_pairs_in_order(self):
        if not fork_available():
            pytest.skip("no fork on this platform")
        specs = _specs(4)
        pairs = run_many(specs, jobs=2, chunk_size=3, collect=_collect_makespan)
        assert [r.makespan_us for r, _ in pairs] == [
            r.makespan_us for r in run_many(specs, jobs=1)
        ]
        for result, (makespan, machine_now) in pairs:
            assert result.makespan_us == makespan == machine_now

    def test_counters_are_per_run_not_per_worker(self):
        # Two specs executed back-to-back in ONE worker (same process, one
        # chunk): each RunResult's solver/profiling counters must describe
        # only its own run. A regression that accumulated them across the
        # worker's chunk, or let one run's solves warm the next, would
        # change the second run's counters.
        from repro.parallel import _execute_chunk

        spec_a, spec_b = _specs(2)
        fresh_a = run_many([spec_a], jobs=1)[0]
        fresh_b = run_many([spec_b], jobs=1)[0]
        chunked = _execute_chunk([(0, spec_a, None), (1, spec_b, None)])
        assert [i for i, _, _, _ in chunked] == [0, 1]
        for fresh, (_, result, _, _) in zip((fresh_a, fresh_b), chunked):
            assert result == fresh
            assert result.bus_solve_calls == fresh.bus_solve_calls
            assert result.bus_cache_hits == fresh.bus_cache_hits
            assert result.bus_bisection_steps == fresh.bus_bisection_steps
            assert result.solve_skips == fresh.solve_skips
            assert result.lane_rebuilds == fresh.lane_rebuilds


class TestProgressNotes:
    def test_fork_fallback_logged_as_warning(self, monkeypatch, caplog):
        import repro.parallel as par

        monkeypatch.setattr(par, "fork_available", lambda: False)
        calls: list[tuple[int, int]] = []
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            results = run_many(
                _specs(2), jobs=4, progress=lambda d, t: calls.append((d, t))
            )
        assert len(results) == 2
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "fork unavailable" in caplog.records[0].getMessage()
        assert calls == [(1, 2), (2, 2)]

    def test_two_arg_callback_unaffected_by_fallback(self, monkeypatch):
        import repro.parallel as par

        monkeypatch.setattr(par, "fork_available", lambda: False)
        calls: list[tuple[int, int]] = []
        run_many(_specs(2), jobs=4, progress=lambda d, t: calls.append((d, t)))
        assert calls == [(1, 2), (2, 2)]


class TestResultAndCancelHooks:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_on_result_sees_every_spec_with_wall_time(self, jobs):
        if jobs > 1 and not fork_available():
            pytest.skip("no fork on this platform")
        specs = _specs(3)
        seen: dict[int, tuple] = {}

        def on_result(index, result, wall_s):
            seen[index] = (result, wall_s)

        results = run_many(specs, jobs=jobs, on_result=on_result)
        assert sorted(seen) == [0, 1, 2]
        for index, (result, wall_s) in seen.items():
            assert result == results[index]
            assert wall_s > 0.0

    def test_on_result_composes_with_collect(self):
        specs = _specs(2)
        indices: list[int] = []
        pairs = run_many(
            specs, jobs=1, collect=_collect_makespan,
            on_result=lambda i, r, w: indices.append(i),
        )
        # on_result receives the bare RunResult; the return list pairs it.
        assert sorted(indices) == [0, 1]
        assert all(isinstance(p, tuple) for p in pairs)

    def test_cancel_serial_stops_between_specs(self):
        specs = _specs(4)
        done: list[int] = []

        def cancel():
            return len(done) >= 2  # stop after two completions

        results = run_many(
            specs, jobs=1, on_result=lambda i, r, w: done.append(i), cancel=cancel
        )
        assert done == [0, 1]
        assert results[0] is not None and results[1] is not None
        assert results[2] is None and results[3] is None

    def test_cancel_parallel_skips_unstarted_chunks(self):
        if not fork_available():
            pytest.skip("no fork on this platform")
        specs = _specs(6)
        completed: list[int] = []

        def cancel():
            return len(completed) >= 1  # cancel once anything lands

        results = run_many(
            specs, jobs=2, chunk_size=1,
            on_result=lambda i, r, w: completed.append(i),
            cancel=cancel,
        )
        # Finished chunks report; something must have been skipped but
        # everything reported as done is a real result.
        assert completed, "nothing completed before cancel"
        assert any(r is None for r in results)
        for index in completed:
            assert results[index] is not None

    def test_cancel_false_is_inert(self):
        specs = _specs(3)
        assert run_many(specs, jobs=1, cancel=lambda: False) == run_many(specs, jobs=1)

    def test_cancel_before_start_runs_nothing(self):
        results = run_many(_specs(3), jobs=1, cancel=lambda: True)
        assert results == [None, None, None]

    def test_on_result_delivered_before_worker_exception_raises(self):
        # A spec's own exception stops new dispatches, but the chunk
        # already in flight beside it (index 1: two workers, one spec per
        # chunk) must land through on_result before the failure is
        # re-raised. Specs not yet dispatched may or may not have run.
        if not fork_available():
            pytest.skip("no fork on this platform")
        goods = _specs(4)
        doomed = SimulationSpec(
            targets=[goods[0].targets[0]], seed=1, max_time_us=1.0
        )  # too short to finish: SimulationError at execution time
        landed: list[int] = []
        with pytest.raises(SimulationError):
            run_many(
                [doomed] + goods, jobs=2, chunk_size=1,
                on_result=lambda i, r, w: landed.append(i),
            )
        assert 1 in landed
        assert set(landed) <= {1, 2, 3, 4}


#: Tiny supervision policy: fast retries, fast deadline polls. The
#: ceiling stays generous — crash tests must never time out first.
_FAST_SUP = SupervisionConfig(
    max_attempts=2,
    timeout_floor_s=30.0,
    backoff_base_s=0.01,
    backoff_max_s=0.02,
    poll_s=0.01,
)


class TestSupervisionConfig:
    def test_timeout_before_observations_is_ceiling(self):
        sup = SupervisionConfig(timeout_ceiling_s=600.0)
        assert sup.timeout_for([]) == 600.0

    def test_timeout_derives_from_observed_walls(self):
        sup = SupervisionConfig(
            timeout_floor_s=1.0, timeout_ceiling_s=100.0, timeout_factor=8.0
        )
        assert sup.timeout_for([0.5, 2.0, 1.0]) == 16.0  # 8 x max
        assert sup.timeout_for([0.01]) == 1.0  # clamped to floor
        assert sup.timeout_for([50.0]) == 100.0  # clamped to ceiling

    def test_backoff_doubles_and_caps(self):
        sup = SupervisionConfig(backoff_base_s=0.1, backoff_max_s=0.5)
        assert sup.backoff_for(1) == pytest.approx(0.1)
        assert sup.backoff_for(2) == pytest.approx(0.2)
        assert sup.backoff_for(3) == pytest.approx(0.4)
        assert sup.backoff_for(4) == pytest.approx(0.5)  # capped

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"timeout_floor_s": 0.0},
        {"timeout_floor_s": 10.0, "timeout_ceiling_s": 5.0},
        {"timeout_factor": 0.0},
        {"backoff_base_s": -1.0},
        {"backoff_base_s": 1.0, "backoff_max_s": 0.5},
        {"poll_s": 0.0},
        # ``nan <= 0.0`` is false, so a bare range check lets NaN through.
        {"timeout_floor_s": math.nan},
        {"timeout_ceiling_s": math.nan},
        {"timeout_factor": math.nan},
        {"backoff_base_s": math.nan},
        {"backoff_max_s": math.nan},
        {"poll_s": math.nan},
        # Only the timeout clamps may be infinite (no deadline); an
        # infinite poll or backoff would overflow ``wait``/``sleep``.
        {"timeout_factor": math.inf},
        {"backoff_max_s": math.inf},
        {"poll_s": math.inf},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionConfig(**kwargs)

    def test_default_config_never_sets_a_deadline(self):
        from repro.parallel import _NO_DEADLINE

        assert _NO_DEADLINE.timeout_for([]) == math.inf
        assert _NO_DEADLINE.timeout_for([1e-6, 0.5]) == math.inf
        assert _NO_DEADLINE.timeout_for([1e9]) == math.inf
        # Every other field keeps the supervised defaults.
        assert _NO_DEADLINE.max_attempts == SupervisionConfig().max_attempts


class TestSupervisedRunMany:
    """Crash/hang survival via the ``REPRO_CHAOS_*`` env hooks.

    The hooks live in the worker-side ``_execute`` and fire on the
    matching spec hash; forked workers inherit the monkeypatched
    environment from this process.
    """

    @pytest.fixture(autouse=True)
    def _need_fork(self):
        if not fork_available():
            pytest.skip("no fork on this platform")

    def test_fault_free_supervised_is_bit_identical(self):
        specs = _specs(4)
        serial = run_many(specs, jobs=1)
        assert run_many(specs, jobs=2, chunk_size=1, supervise=_FAST_SUP) == serial

    def test_crashing_spec_raises_typed_error_with_attribution(self, monkeypatch):
        specs = _specs(3)
        monkeypatch.setenv("REPRO_CHAOS_KILL_SPEC", specs[1].spec_hash())
        with pytest.raises(WorkerCrashError) as excinfo:
            run_many(specs, jobs=2, chunk_size=1, supervise=_FAST_SUP)
        assert excinfo.value.spec_index == 1
        assert excinfo.value.attempts == _FAST_SUP.max_attempts

    def test_siblings_land_despite_crasher(self, monkeypatch):
        # Crasher last: in-flight specs re-run in index order, so every
        # sibling is delivered (pool pass or isolation) before the raise.
        specs = _specs(3)
        serial = run_many(specs, jobs=1)
        monkeypatch.setenv("REPRO_CHAOS_KILL_SPEC", specs[2].spec_hash())
        landed: dict[int, object] = {}
        with pytest.raises(WorkerCrashError):
            run_many(
                specs, jobs=2, chunk_size=1, supervise=_FAST_SUP,
                on_result=lambda i, r, w: landed.__setitem__(i, r),
            )
        assert sorted(landed) == [0, 1]  # both siblings, bit-identically
        assert all(landed[i] == serial[i] for i in landed)

    def test_hanging_spec_raises_timeout_error(self, monkeypatch):
        specs = _specs(2)
        monkeypatch.setenv("REPRO_CHAOS_HANG_SPEC", specs[1].spec_hash())
        sup = SupervisionConfig(
            max_attempts=2,
            timeout_floor_s=0.2,
            timeout_ceiling_s=0.5,
            backoff_base_s=0.01,
            backoff_max_s=0.02,
            poll_s=0.02,
        )
        with pytest.raises(RunTimeoutError) as excinfo:
            run_many(specs, jobs=2, chunk_size=1, supervise=sup)
        assert excinfo.value.spec_index == 1
        assert excinfo.value.attempts == 2
        assert excinfo.value.timeout_s <= 0.5

    def test_crash_once_retry_is_bit_identical(self, monkeypatch, tmp_path):
        specs = _specs(3)
        serial = run_many(specs, jobs=1)
        monkeypatch.setenv("REPRO_CHAOS_KILL_SPEC", specs[2].spec_hash())
        monkeypatch.setenv("REPRO_CHAOS_KILL_ONCE_DIR", str(tmp_path))
        results = run_many(specs, jobs=2, chunk_size=1, supervise=_FAST_SUP)
        assert results == serial  # the retried run is indistinguishable
        assert (tmp_path / f"{specs[2].spec_hash()}.kill").exists()

    def test_default_path_crash_once_returns_serial_result(
        self, monkeypatch, tmp_path, caplog
    ):
        # No config: a worker that dies once is isolated and retried, and
        # the batch returns the serial results bit for bit. The isolation
        # run has an infinite budget, which ``wait`` must never receive
        # as a number (it overflows).
        specs = _specs(3)
        serial = run_many(specs, jobs=1)
        monkeypatch.setenv("REPRO_CHAOS_KILL_SPEC", specs[0].spec_hash())
        monkeypatch.setenv("REPRO_CHAOS_KILL_ONCE_DIR", str(tmp_path))
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            results = run_many(specs, jobs=2, chunk_size=1)
        assert results == serial
        assert any(
            "worker crash detected" in r.getMessage() for r in caplog.records
        )

    def test_crash_isolates_only_in_flight_specs(self, monkeypatch, tmp_path, caplog):
        # Two workers, one spec per chunk: when spec 0 kills its worker,
        # at most two specs are in flight (spec 0 and one sibling). Only
        # those run in isolation; the specs never dispatched go back
        # through a fresh two-worker pool instead of running one at a time.
        specs = _specs(6)
        serial = run_many(specs, jobs=1)
        monkeypatch.setenv("REPRO_CHAOS_KILL_SPEC", specs[0].spec_hash())
        monkeypatch.setenv("REPRO_CHAOS_KILL_ONCE_DIR", str(tmp_path))
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            results = run_many(specs, jobs=2, chunk_size=1)
        assert results == serial
        notes = [
            r.getMessage() for r in caplog.records if "worker crash detected" in r.getMessage()
        ]
        assert len(notes) == 1
        isolated = int(re.search(r"isolating (\d+) ", notes[0]).group(1))
        assert 1 <= isolated <= 2

    def test_default_path_crash_every_attempt_raises_typed_error(self, monkeypatch):
        specs = _specs(2)
        monkeypatch.setenv("REPRO_CHAOS_KILL_SPEC", specs[0].spec_hash())
        with pytest.raises(WorkerCrashError) as excinfo:
            run_many(specs, jobs=2, chunk_size=1)
        assert excinfo.value.spec_index == 0
        assert excinfo.value.attempts == SupervisionConfig().max_attempts

    def test_pool_broken_at_submit_ends_the_pass_as_a_crash(self, monkeypatch):
        # A worker can die between a wait and the next submit, and the
        # broken pool then refuses the submit. The pass must end as a
        # crash with the chunk left undispatched: escaping run_many would
        # make the service replay the batch in-process, where a spec that
        # kills its worker kills the service.
        import repro.parallel as par
        from concurrent.futures.process import BrokenProcessPool

        specs = _specs(4)
        serial = run_many(specs, jobs=1)
        submits = []

        class BreaksAtThirdSubmit(par.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(None)
                if len(submits) == 3:
                    raise BrokenProcessPool("a worker died")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(par, "ProcessPoolExecutor", BreaksAtThirdSubmit)
        assert run_many(specs, jobs=2, chunk_size=1) == serial
        assert len(submits) == len(specs) + 1  # the refused chunk went again


class TestSerialSupervision:
    def test_serial_supervised_run_builds_no_pool(self, monkeypatch):
        # Supervision is inert on the serial path: no pool, same results.
        import repro.parallel as par

        specs = _specs(3)
        plain = run_many(specs, jobs=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a serial run built a process pool")

        monkeypatch.setattr(par, "ProcessPoolExecutor", no_pool)
        assert run_many(specs, jobs=1, supervise=SupervisionConfig()) == plain
