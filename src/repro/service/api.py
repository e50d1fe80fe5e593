"""HTTP layer over :class:`~repro.service.jobs.SimulationService`.

The core is a plain WSGI application (:func:`create_wsgi_app`) served by
the stdlib ``wsgiref`` threading server, so the service runs
dependency-free.

Routes (all JSON)::

    POST /v1/runs              submit {"spec": {...}, "tenant"?, "label"?,
                               "no_cache"?} → 202 queued / 200 cached /
                               400 validation / 429 rate-limited (with
                               Retry-After) / 503 queue full or draining
    GET  /v1/runs              list runs (?tenant=&status=&limit=;
                               unknown status → 400 naming the allowed)
    GET  /v1/runs/<id>         poll one run's lifecycle record
    GET  /v1/runs/<id>/result  the stored RunResult (409 until terminal)
    GET  /v1/runs/<id>/audit   the stored audit report (404 when the run
                               was not audited)
    GET  /v1/stats             queue/dispatch/cache/store counters
    GET  /v1/healthz           liveness (also reports dispatcher state)

Overload responses are deliberately distinct: 429 means *this tenant*
should slow to its sustained rate (the ``Retry-After`` header says when
a token is available), while 503 queue-full means the whole service is
saturated — backing off harder or resubmitting later is the right client
move, and the body's ``error.type`` (``rate_limited`` vs ``queue_full``
vs ``draining``) disambiguates programmatically.

Validation failures return the structured
:meth:`~repro.service.schemas.SpecValidationError.to_dict` body — the
``path`` field points at the offending spec field, which is the
"actionable 4xx" contract: a client can fix its payload without reading
server logs.
"""

from __future__ import annotations

import json
import math
import threading
from socketserver import ThreadingMixIn
from typing import Any, Callable, Iterable
from urllib.parse import parse_qs
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from .jobs import QueueFullError, ServiceClosedError, SimulationService
from .ratelimit import RateLimitedError
from .schemas import SpecValidationError, result_to_dict
from .store import RUN_STATUSES, UnknownRunError

__all__ = ["create_wsgi_app", "serve", "ServiceServer"]

_STATUS_TEXT = {
    200: "200 OK",
    202: "202 Accepted",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    409: "409 Conflict",
    413: "413 Content Too Large",
    429: "429 Too Many Requests",
    500: "500 Internal Server Error",
    503: "503 Service Unavailable",
}

#: Submission bodies beyond this are rejected unread (DoS hygiene; a
#: fully-explicit canonical spec is a few KB, generous headroom above).
MAX_BODY_BYTES = 8 * 1024 * 1024


class _HttpError(Exception):
    """Internal: carry (status, body) out of a route handler."""

    def __init__(self, status: int, body: dict[str, Any]) -> None:
        super().__init__(body.get("message", ""))
        self.status = status
        self.body = body


def _error_body(kind: str, message: str, **extra: Any) -> dict[str, Any]:
    return {"error": {"type": kind, "message": message, **extra}}


def _retry_after_header(retry_after_s: float) -> tuple[str, str]:
    """``Retry-After`` wants whole seconds; round up so clients never retry early."""
    return ("Retry-After", str(max(1, math.ceil(retry_after_s))))


def _read_json_body(environ: dict[str, Any]) -> dict[str, Any]:
    try:
        length = int(environ.get("CONTENT_LENGTH") or 0)
    except ValueError:
        length = 0
    if length > MAX_BODY_BYTES:
        raise _HttpError(
            413, _error_body("too_large", f"body exceeds {MAX_BODY_BYTES} bytes")
        )
    raw = environ["wsgi.input"].read(length) if length else b""
    if not raw:
        raise _HttpError(400, _error_body("validation", "empty request body"))
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _HttpError(400, _error_body("validation", f"body is not valid JSON: {exc}"))
    if not isinstance(payload, dict):
        raise _HttpError(400, _error_body("validation", "body must be a JSON object"))
    return payload


def _query(environ: dict[str, Any]) -> dict[str, str]:
    parsed = parse_qs(environ.get("QUERY_STRING", ""), keep_blank_values=False)
    return {key: values[-1] for key, values in parsed.items()}


def create_wsgi_app(service: SimulationService) -> Callable:
    """A WSGI application exposing ``service`` (stdlib-only)."""

    def handle(method: str, path: str, environ: dict[str, Any]) -> tuple[int, dict]:
        parts = [p for p in path.split("/") if p]
        if parts[:1] != ["v1"]:
            raise _HttpError(404, _error_body("not_found", f"no route {path!r}"))
        route = parts[1:]

        if route == ["healthz"]:
            if method != "GET":
                raise _HttpError(405, _error_body("method", f"{method} not allowed"))
            return 200, {"ok": True, "dispatcher_running": service.running}

        if route == ["stats"]:
            if method != "GET":
                raise _HttpError(405, _error_body("method", f"{method} not allowed"))
            return 200, service.stats().to_dict()

        if route == ["runs"]:
            if method == "POST":
                body = _read_json_body(environ)
                response = service.submit(body)
                return (200 if response["cached"] else 202), response
            if method == "GET":
                query = _query(environ)
                try:
                    limit = int(query.get("limit", "100"))
                except ValueError:
                    raise _HttpError(400, _error_body("validation", "limit must be an integer"))
                try:
                    runs = service.list_runs(
                        tenant=query.get("tenant"), status=query.get("status"), limit=limit
                    )
                except ValueError as exc:
                    raise _HttpError(
                        400,
                        _error_body("validation", str(exc), allowed=list(RUN_STATUSES)),
                    )
                return 200, {"runs": runs}
            raise _HttpError(405, _error_body("method", f"{method} not allowed"))

        if len(route) == 2 and route[0] == "runs":
            if method != "GET":
                raise _HttpError(405, _error_body("method", f"{method} not allowed"))
            return 200, service.poll(route[1])

        if len(route) == 3 and route[0] == "runs" and route[2] == "result":
            if method != "GET":
                raise _HttpError(405, _error_body("method", f"{method} not allowed"))
            run_id = route[1]
            record = service.store.get(run_id)
            result = service.result(run_id)
            if result is None:
                raise _HttpError(
                    409,
                    _error_body(
                        "not_ready",
                        f"run {run_id!r} is {record.status!r}; no result stored",
                        status=record.status,
                        error=record.error,
                    ),
                )
            return 200, {"run": record.to_dict(), "result": result_to_dict(result)}

        if len(route) == 3 and route[0] == "runs" and route[2] == "audit":
            if method != "GET":
                raise _HttpError(405, _error_body("method", f"{method} not allowed"))
            run_id = route[1]
            record = service.store.get(run_id)  # unknown id → 404 via UnknownRunError
            audit = service.store.get_audit(run_id)
            if audit is None:
                raise _HttpError(
                    404,
                    _error_body(
                        "no_audit",
                        f"run {run_id!r} has no stored audit report"
                        " (submit the spec with \"audit\": true)",
                        status=record.status,
                    ),
                )
            return 200, {"run_id": run_id, "status": record.status, "audit": audit}

        raise _HttpError(404, _error_body("not_found", f"no route {path!r}"))

    def app(environ: dict[str, Any], start_response: Callable) -> Iterable[bytes]:
        method = environ.get("REQUEST_METHOD", "GET").upper()
        path = environ.get("PATH_INFO", "/")
        extra_headers: list[tuple[str, str]] = []
        try:
            status, body = handle(method, path, environ)
        except _HttpError as exc:
            status, body = exc.status, exc.body
        except SpecValidationError as exc:
            status, body = 400, {"error": exc.to_dict()}
        except RateLimitedError as exc:
            status = 429
            body = _error_body(
                "rate_limited", str(exc), retry_after_s=exc.retry_after_s
            )
            extra_headers.append(_retry_after_header(exc.retry_after_s))
        except QueueFullError as exc:
            status, body = 503, _error_body("queue_full", str(exc))
        except ServiceClosedError as exc:
            status, body = 503, _error_body("draining", str(exc))
        except UnknownRunError as exc:
            status, body = 404, _error_body("not_found", str(exc))
        except Exception as exc:  # pragma: no cover - defensive 500
            status, body = 500, _error_body("internal", f"{type(exc).__name__}: {exc}")
        payload = json.dumps(body).encode("utf-8")
        start_response(
            _STATUS_TEXT.get(status, f"{status} Error"),
            [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(payload))),
                *extra_headers,
            ],
        )
        return [payload]

    return app


class ServiceServer(ThreadingMixIn, WSGIServer):
    """Threaded WSGI server: polls must not block behind a slow submit."""

    daemon_threads = True


class _QuietHandler(WSGIRequestHandler):
    """Request handler without per-request stderr chatter."""

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass


def serve(
    service: SimulationService,
    host: str = "127.0.0.1",
    port: int = 8642,
    quiet: bool = True,
) -> ServiceServer:
    """Bind the WSGI app; the caller drives ``serve_forever``.

    ``port=0`` binds an ephemeral port (tests, the CI smoke job) —
    read the bound address back from ``server.server_address``.
    """
    handler = _QuietHandler if quiet else WSGIRequestHandler
    server = make_server(
        host, port, create_wsgi_app(service), server_class=ServiceServer, handler_class=handler
    )
    return server


def serve_background(
    service: SimulationService, host: str = "127.0.0.1", port: int = 0
) -> tuple[ServiceServer, threading.Thread]:
    """Start serving on a daemon thread (tests/smoke); returns (server, thread)."""
    server = serve(service, host=host, port=port)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server, thread
