"""SimulationService end-to-end (in-process): round-trip determinism,
cached resubmission with zero new simulation work, fairness across
tenants, bounded-queue rejection, failure attribution, and drain.

The determinism test is the service's headline contract: a fig2-style
spec submitted through the full validate → hash → queue → dispatch →
store pipeline must produce a stored ``RunResult`` that is *bit
identical* (dataclass equality) to calling
:func:`repro.experiments.base.run_simulation` directly — the service
adds transport and persistence, never physics.
"""

import pytest

from repro.experiments.base import run_simulation
from repro.service import (
    QueueFullError,
    ResultStore,
    ServiceClosedError,
    SimulationService,
    SpecValidationError,
)
from repro.service.schemas import spec_from_dict

#: A fig2-style cell: target app + bandwidth-consuming microbenchmark
#: under the paper's latest-quantum policy (scaled down for test speed).
FIG2_PAYLOAD = {
    "spec": {
        "targets": [{"app": "CG", "work_scale": 0.02}],
        "background": [{"microbench": "BBMA"}],
        "scheduler": {"policy": "latest_quantum"},
        "max_time_us": 200_000,
    }
}


@pytest.fixture
def service():
    store = ResultStore(":memory:")
    svc = SimulationService(store, queue_depth=8, jobs=1).start()
    yield svc
    svc.shutdown(drain=False, timeout=10.0)
    store.close()


class TestSubmitEncoding:
    def test_submit_encodes_the_spec_once(self, monkeypatch):
        from repro.service import jobs, schemas

        calls = []
        encode = schemas.spec_to_dict

        def counting(spec):
            calls.append(spec)
            return encode(spec)

        monkeypatch.setattr(schemas, "spec_to_dict", counting)
        monkeypatch.setattr(jobs, "spec_to_dict", counting)
        store = ResultStore(":memory:")
        svc = SimulationService(store, queue_depth=8, jobs=1)
        accepted = svc.submit(FIG2_PAYLOAD)
        store.close()
        assert len(calls) == 1
        assert accepted["spec_hash"] == spec_from_dict(FIG2_PAYLOAD["spec"]).spec_hash()


class TestRoundTripDeterminism:
    def test_stored_result_equals_direct_run(self, service):
        accepted = service.submit(FIG2_PAYLOAD)
        assert accepted["status"] == "queued"
        record = service.wait(accepted["run_id"], timeout=120.0)
        assert record.status == "done"
        assert record.wall_time_s > 0.0

        served = service.result(accepted["run_id"])
        direct = run_simulation(spec_from_dict(FIG2_PAYLOAD["spec"]))
        assert served == direct  # bit-identical, the full dataclass

    def test_cached_resubmit_runs_nothing(self, service):
        first = service.submit(FIG2_PAYLOAD)
        service.wait(first["run_id"], timeout=120.0)
        executed_before = service.stats().executed_runs
        assert executed_before == 1

        second = service.submit(FIG2_PAYLOAD)
        # Terminal immediately: no queueing, no dispatch, no simulation.
        assert second["status"] == "cached"
        assert second["cached_from"] == first["run_id"]
        record = service.store.get(second["run_id"])
        assert record.terminal and record.wall_time_s == 0.0

        stats = service.stats()
        assert stats.executed_runs == executed_before  # zero new work
        assert stats.cache_hits == 1
        assert service.result(second["run_id"]) == service.result(first["run_id"])

    def test_no_cache_forces_rerun_with_identical_result(self, service):
        first = service.submit(FIG2_PAYLOAD)
        service.wait(first["run_id"], timeout=120.0)
        payload = dict(FIG2_PAYLOAD, no_cache=True)
        second = service.submit(payload)
        assert second["status"] == "queued"
        service.wait(second["run_id"], timeout=120.0)
        assert service.stats().executed_runs == 2
        # Determinism: the re-run reproduces the first result exactly.
        assert service.result(second["run_id"]) == service.result(first["run_id"])

    def test_different_spec_is_not_cache_served(self, service):
        first = service.submit(FIG2_PAYLOAD)
        service.wait(first["run_id"], timeout=120.0)
        other = {"spec": dict(FIG2_PAYLOAD["spec"], seed=43)}
        second = service.submit(other)
        assert second["status"] == "queued"
        assert second["spec_hash"] != first["spec_hash"]


class TestSubmissionErrors:
    def test_invalid_spec_counted_and_not_stored(self, service):
        with pytest.raises(SpecValidationError):
            service.submit({"spec": {"targets": [{"app": "NOPE"}]}})
        stats = service.stats()
        assert stats.rejected_invalid == 1
        assert stats.store_counts == {}  # nothing was persisted

    def test_queue_full_rejects_with_backpressure_semantics(self):
        store = ResultStore(":memory:")
        # No dispatcher: the queue can only fill up.
        service = SimulationService(store, queue_depth=2, jobs=1)
        try:
            service.submit(FIG2_PAYLOAD)
            service.submit({"spec": dict(FIG2_PAYLOAD["spec"], seed=1)})
            with pytest.raises(QueueFullError):
                service.submit({"spec": dict(FIG2_PAYLOAD["spec"], seed=2)})
            stats = service.stats()
            assert stats.rejected_full == 1
            # The rejected submission's store row is closed out, not
            # left dangling in 'queued'.
            assert stats.store_counts.get("cancelled") == 1
        finally:
            store.close()

    def test_draining_service_rejects(self, service):
        service.shutdown(drain=True, timeout=10.0)
        with pytest.raises(ServiceClosedError):
            service.submit(FIG2_PAYLOAD)


class TestFailureAttribution:
    def test_failing_spec_marked_failed_others_complete(self, service):
        # max_time_us too short for the run to finish: SimulationError
        # at execution time (validation cannot catch it).
        doomed = {"spec": {
            "targets": [{"app": "CG", "work_scale": 0.02}],
            "scheduler": "dedicated",
            "max_time_us": 1,
        }}
        good = service.submit(FIG2_PAYLOAD)
        bad = service.submit(doomed)
        good_rec = service.wait(good["run_id"], timeout=120.0)
        bad_rec = service.wait(bad["run_id"], timeout=120.0)
        assert good_rec.status == "done"
        assert bad_rec.status == "failed"
        assert bad_rec.error  # attributed, actionable
        stats = service.stats()
        assert stats.failed_runs == 1 and stats.executed_runs == 1
        assert stats.in_flight == 0


class TestTenancyAndListing:
    def test_runs_listed_per_tenant(self, service):
        a = service.submit(dict(FIG2_PAYLOAD, tenant="alice"))
        b = service.submit(dict(FIG2_PAYLOAD, tenant="bob", no_cache=True))
        service.wait(a["run_id"], timeout=120.0)
        service.wait(b["run_id"], timeout=120.0)
        alice = service.list_runs(tenant="alice")
        assert [r["run_id"] for r in alice] == [a["run_id"]]
        assert len(service.list_runs()) == 2

    def test_poll_reports_lifecycle(self, service):
        accepted = service.submit(FIG2_PAYLOAD)
        record = service.wait(accepted["run_id"], timeout=120.0)
        polled = service.poll(accepted["run_id"])
        assert polled["status"] == "done"
        assert polled["spec_hash"] == accepted["spec_hash"]
        assert polled["finished_at"] >= polled["submitted_at"]
        assert record.run_id == polled["run_id"]


class TestDrain:
    def test_graceful_drain_finishes_backlog(self):
        store = ResultStore(":memory:")
        service = SimulationService(store, queue_depth=16, jobs=1)
        run_ids = []
        for seed in range(3):
            payload = {"spec": dict(FIG2_PAYLOAD["spec"], seed=seed)}
            run_ids.append(service.submit(payload)["run_id"])
        # Start the dispatcher only now: everything is still queued.
        service.start()
        assert service.shutdown(drain=True, timeout=120.0)
        try:
            for run_id in run_ids:
                assert store.get(run_id).status == "done"
            assert not service.running
        finally:
            store.close()

    def test_drainless_shutdown_cancels_backlog(self):
        store = ResultStore(":memory:")
        service = SimulationService(store, queue_depth=16, jobs=1)
        # Dispatcher never started: jobs stay queued until cancelled.
        run_ids = [
            service.submit({"spec": dict(FIG2_PAYLOAD["spec"], seed=s)})["run_id"]
            for s in range(3)
        ]
        service.shutdown(drain=False, timeout=10.0)
        try:
            statuses = {store.get(r).status for r in run_ids}
            assert statuses == {"cancelled"}
            assert service.stats().cancelled == 3
        finally:
            store.close()
