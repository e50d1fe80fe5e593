"""The WSGI HTTP layer, driven at the environ level (no sockets).

Each test builds a WSGI environ by hand and calls the app directly —
faster and more deterministic than binding ports, and it exercises
exactly the code the wsgiref server runs. The full socket path is
covered by ``benchmarks/service_smoke.py`` (the CI ``service-smoke``
job).
"""

import io
import json

import pytest

from repro.service import ResultStore, SimulationService
from repro.service.api import create_wsgi_app

PAYLOAD = {
    "spec": {
        "targets": [{"app": "CG", "work_scale": 0.02}],
        "background": [{"microbench": "BBMA"}],
        "scheduler": "linux",
        "max_time_us": 200_000,
    }
}


@pytest.fixture
def service():
    store = ResultStore(":memory:")
    svc = SimulationService(store, queue_depth=4, jobs=1).start()
    yield svc
    svc.shutdown(drain=False, timeout=10.0)
    store.close()


@pytest.fixture
def app(service):
    return create_wsgi_app(service)


def call_with_headers(app, method: str, path: str, body: dict | None = None):
    """Invoke the WSGI app; returns (status_code, JSON body, headers)."""
    raw = json.dumps(body).encode() if body is not None else b""
    query = ""
    if "?" in path:
        path, query = path.split("?", 1)
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    captured: dict = {}

    def start_response(status, headers):
        captured["status"] = int(status.split()[0])
        captured["headers"] = dict(headers)

    chunks = app(environ, start_response)
    payload = b"".join(chunks)
    assert captured["headers"]["Content-Type"] == "application/json"
    assert int(captured["headers"]["Content-Length"]) == len(payload)
    return captured["status"], json.loads(payload), captured["headers"]


def call(app, method: str, path: str, body: dict | None = None):
    """Invoke the WSGI app; returns (status_code, decoded JSON body)."""
    status, payload, _ = call_with_headers(app, method, path, body)
    return status, payload


class TestSubmitAndPoll:
    def test_submit_poll_result(self, app, service):
        status, accepted = call(app, "POST", "/v1/runs", PAYLOAD)
        assert status == 202 and accepted["status"] == "queued"
        run_id = accepted["run_id"]
        service.wait(run_id, timeout=120.0)

        status, record = call(app, "GET", f"/v1/runs/{run_id}")
        assert status == 200 and record["status"] == "done"

        status, body = call(app, "GET", f"/v1/runs/{run_id}/result")
        assert status == 200
        assert body["run"]["run_id"] == run_id
        assert body["result"]["makespan_us"] > 0

    def test_cached_resubmit_returns_200(self, app, service):
        _, first = call(app, "POST", "/v1/runs", PAYLOAD)
        service.wait(first["run_id"], timeout=120.0)
        status, second = call(app, "POST", "/v1/runs", PAYLOAD)
        assert status == 200 and second["cached"]
        assert second["cached_from"] == first["run_id"]

    def test_result_before_done_is_409(self, app, service):
        # No dispatcher race: submit against a full-capacity queue by
        # polling a just-submitted run immediately — if it already
        # finished, the 409 path is still covered by the store check
        # below via an unknown status guard.
        _, accepted = call(app, "POST", "/v1/runs", PAYLOAD)
        status, body = call(app, "GET", f"/v1/runs/{accepted['run_id']}/result")
        if status == 409:
            assert body["error"]["type"] == "not_ready"
        else:  # the run beat us to completion — equally valid
            assert status == 200
        service.wait(accepted["run_id"], timeout=120.0)

    def test_list_runs_with_filters(self, app, service):
        _, accepted = call(app, "POST", "/v1/runs", PAYLOAD)
        service.wait(accepted["run_id"], timeout=120.0)
        status, body = call(app, "GET", "/v1/runs?status=done&limit=5")
        assert status == 200
        assert [r["run_id"] for r in body["runs"]] == [accepted["run_id"]]


class TestAuditEndpoint:
    def test_audited_run_serves_report(self, app, service):
        audited = {"spec": dict(PAYLOAD["spec"], audit=True)}
        _, accepted = call(app, "POST", "/v1/runs", audited)
        service.wait(accepted["run_id"], timeout=120.0)
        status, body = call(app, "GET", f"/v1/runs/{accepted['run_id']}/audit")
        assert status == 200
        assert body["run_id"] == accepted["run_id"]
        assert body["audit"]["violations"] == []
        checks = dict((name, n) for name, n in body["audit"]["checks"])
        assert sum(checks.values()) > 0

    def test_cache_hit_copies_audit_report(self, app, service):
        audited = {"spec": dict(PAYLOAD["spec"], audit=True)}
        _, first = call(app, "POST", "/v1/runs", audited)
        service.wait(first["run_id"], timeout=120.0)
        status, second = call(app, "POST", "/v1/runs", audited)
        assert status == 200 and second["cached"]
        status, body = call(app, "GET", f"/v1/runs/{second['run_id']}/audit")
        assert status == 200
        assert body["status"] == "cached"
        assert body["audit"]["violations"] == []

    def test_unaudited_run_is_404(self, app, service):
        _, accepted = call(app, "POST", "/v1/runs", PAYLOAD)
        service.wait(accepted["run_id"], timeout=120.0)
        status, body = call(app, "GET", f"/v1/runs/{accepted['run_id']}/audit")
        assert status == 404 and body["error"]["type"] == "no_audit"

    def test_unknown_run_audit_is_404(self, app):
        status, body = call(app, "GET", "/v1/runs/deadbeef/audit")
        assert status == 404 and body["error"]["type"] == "not_found"


class TestErrorMapping:
    def test_validation_error_is_400_with_path(self, app):
        bad = {"spec": {"targets": [{"app": "NOPE"}]}}
        status, body = call(app, "POST", "/v1/runs", bad)
        assert status == 400
        assert body["error"]["type"] == "validation"
        assert body["error"]["path"] == "request.spec.targets[0].app"

    def test_queue_full_is_503(self):
        # Saturation is 503, distinct from the per-tenant rate limit's 429.
        store = ResultStore(":memory:")
        service = SimulationService(store, queue_depth=1, jobs=1)  # no dispatcher
        app = create_wsgi_app(service)
        try:
            status, _ = call(app, "POST", "/v1/runs", PAYLOAD)
            assert status == 202
            other = {"spec": dict(PAYLOAD["spec"], seed=1)}
            status, body = call(app, "POST", "/v1/runs", other)
            assert status == 503 and body["error"]["type"] == "queue_full"
        finally:
            store.close()

    def test_rate_limited_is_429_with_retry_after(self):
        from repro.service.ratelimit import RateLimitConfig

        store = ResultStore(":memory:")
        service = SimulationService(
            store,
            queue_depth=16,
            jobs=1,  # no dispatcher: submissions stay queued
            rate_limit=RateLimitConfig(rate_per_s=0.5, burst=1.0),
        )
        app = create_wsgi_app(service)
        try:
            status, _ = call(app, "POST", "/v1/runs", PAYLOAD)
            assert status == 202  # the burst token
            other = {"spec": dict(PAYLOAD["spec"], seed=1)}
            status, body, headers = call_with_headers(app, "POST", "/v1/runs", other)
            assert status == 429
            assert body["error"]["type"] == "rate_limited"
            assert body["error"]["retry_after_s"] > 0
            assert int(headers["Retry-After"]) >= 1
        finally:
            store.close()

    def test_rate_limit_is_per_tenant(self):
        from repro.service.ratelimit import RateLimitConfig

        store = ResultStore(":memory:")
        service = SimulationService(
            store,
            queue_depth=16,
            jobs=1,
            rate_limit=RateLimitConfig(rate_per_s=0.5, burst=1.0),
        )
        app = create_wsgi_app(service)
        try:
            assert call(app, "POST", "/v1/runs", PAYLOAD)[0] == 202
            assert call(app, "POST", "/v1/runs", PAYLOAD)[0] == 429
            # A different tenant still has its own full bucket.
            other_tenant = dict(PAYLOAD, tenant="other")
            assert call(app, "POST", "/v1/runs", other_tenant)[0] == 202
        finally:
            store.close()

    def test_unknown_status_filter_is_400_with_allowed_values(self, app):
        status, body = call(app, "GET", "/v1/runs?status=bogus")
        assert status == 400
        assert body["error"]["type"] == "validation"
        assert "quarantined" in body["error"]["allowed"]
        assert "queued" in body["error"]["allowed"]

    def test_draining_is_503(self, app, service):
        service.shutdown(drain=True, timeout=30.0)
        status, body = call(app, "POST", "/v1/runs", PAYLOAD)
        assert status == 503 and body["error"]["type"] == "draining"

    def test_unknown_run_is_404(self, app):
        status, body = call(app, "GET", "/v1/runs/deadbeef")
        assert status == 404 and body["error"]["type"] == "not_found"
        status, _ = call(app, "GET", "/v1/runs/deadbeef/result")
        assert status == 404

    def test_unknown_route_is_404(self, app):
        assert call(app, "GET", "/v2/nope")[0] == 404
        assert call(app, "GET", "/")[0] == 404

    def test_wrong_method_is_405(self, app):
        assert call(app, "DELETE", "/v1/stats")[0] == 405
        assert call(app, "POST", "/v1/healthz")[0] == 405

    def test_malformed_json_is_400(self, app):
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/v1/runs",
            "QUERY_STRING": "",
            "CONTENT_LENGTH": "9",
            "wsgi.input": io.BytesIO(b"not json!"),
        }
        captured = {}
        chunks = app(environ, lambda s, h: captured.update(status=int(s.split()[0])))
        body = json.loads(b"".join(chunks))
        assert captured["status"] == 400
        assert body["error"]["type"] == "validation"

    def test_empty_body_is_400(self, app):
        status, body = call(app, "POST", "/v1/runs")
        assert status == 400

    def test_non_object_body_is_400(self, app):
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/v1/runs",
            "QUERY_STRING": "",
            "CONTENT_LENGTH": "7",
            "wsgi.input": io.BytesIO(b"[1,2,3]"),
        }
        captured = {}
        chunks = app(environ, lambda s, h: captured.update(status=int(s.split()[0])))
        assert captured["status"] == 400
        json.loads(b"".join(chunks))

    def test_bad_limit_is_400(self, app):
        status, _ = call(app, "GET", "/v1/runs?limit=banana")
        assert status == 400


class TestStatsAndHealth:
    def test_healthz(self, app):
        status, body = call(app, "GET", "/v1/healthz")
        assert status == 200 and body["ok"] and body["dispatcher_running"]

    def test_stats_sections(self, app, service):
        _, accepted = call(app, "POST", "/v1/runs", PAYLOAD)
        service.wait(accepted["run_id"], timeout=120.0)
        call(app, "POST", "/v1/runs", PAYLOAD)  # cache hit
        status, stats = call(app, "GET", "/v1/stats")
        assert status == 200
        assert set(stats) == {"queue", "dispatch", "cache", "store", "wall_time"}
        assert stats["dispatch"]["executed_runs"] == 1
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["hit_rate"] == 0.5
        assert stats["store"]["done"] == 1
        assert stats["wall_time"]["executed_runs"] == 1
        assert stats["wall_time"]["max_wall_s"] > 0
