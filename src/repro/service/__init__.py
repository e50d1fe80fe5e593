"""Simulation-as-a-service: submit/queue/poll access to the simulator.

The service layer turns the deterministic single-run core
(:func:`repro.experiments.base.run_simulation`) into a long-running
multi-tenant system (the ROADMAP's "millions of users" direction —
parameter-grid scheduling studies are exactly the embarrassingly-parallel
many-tenant workload Eremeev et al., arXiv:2010.16058, evaluate):

* :mod:`repro.service.schemas` — a validated JSON request schema
  (``SubmitRequest`` wrapping :class:`~repro.experiments.base.
  SimulationSpec` / :class:`~repro.dynamic.DynamicWorkload`) with
  actionable, path-annotated 4xx-style errors, plus exact round-trip
  codecs for specs and :class:`~repro.metrics.accounting.RunResult`, all
  derived from the dataclasses by :mod:`repro.codec`.
* :mod:`repro.service.jobs` — an in-process bounded job queue with
  per-tenant round-robin fairness and drop/reject accounting, and the
  :class:`SimulationService` dispatcher reusing
  :func:`repro.parallel.run_many` chunked dispatch, with graceful drain
  on shutdown.
* :mod:`repro.service.store` — a persistent sqlite result store (WAL
  mode, versioned schema) keyed by :meth:`SimulationSpec.spec_hash`, so
  identical resubmissions are served from cache without re-running; a
  restart on the same results dir recovers orphaned runs and dead-letters
  specs that keep crashing their workers (``quarantined``).
* :mod:`repro.service.ratelimit` — per-tenant token-bucket overload
  shedding in front of the queue (HTTP 429 + ``Retry-After``, distinct
  from 503 queue-full).
* :mod:`repro.service.stats` — live service statistics (queue depth,
  in-flight, cache hit rate, per-run wall time).
* :mod:`repro.service.api` — the HTTP layer: a dependency-free stdlib
  WSGI server (``repro serve``).

Determinism guarantee: the service executes the *same*
``run_simulation`` the library exposes, so a stored result is
bit-identical (dataclass equality) to a direct in-process run of the
same spec — ``tests/service/test_service.py`` pins this down.
"""

from .api import create_wsgi_app, serve
from .jobs import FairQueue, Job, QueueFullError, ServiceClosedError, SimulationService
from .ratelimit import RateLimitConfig, RateLimitedError, RateLimiter
from .schemas import (
    SpecValidationError,
    SubmitRequest,
    parse_submit_request,
    result_from_dict,
    result_to_dict,
    spec_from_dict,
    spec_to_dict,
)
from .store import ResultStore, RunRecord
from .stats import ServiceStats

__all__ = [
    "FairQueue",
    "Job",
    "QueueFullError",
    "RateLimitConfig",
    "RateLimitedError",
    "RateLimiter",
    "ResultStore",
    "RunRecord",
    "ServiceClosedError",
    "ServiceStats",
    "SimulationService",
    "SpecValidationError",
    "SubmitRequest",
    "create_wsgi_app",
    "parse_submit_request",
    "serve",
    "result_from_dict",
    "result_to_dict",
    "spec_from_dict",
    "spec_to_dict",
]
