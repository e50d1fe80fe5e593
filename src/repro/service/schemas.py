"""Request schema and JSON codecs for the simulation service.

Two jobs live here:

* **Validation** — :func:`parse_submit_request` turns an untrusted JSON
  payload into a :class:`SubmitRequest` wrapping a fully-validated
  :class:`~repro.experiments.base.SimulationSpec`. Every failure raises
  :class:`SpecValidationError` carrying a JSON-pointer-style ``path`` and
  an actionable message ("expected one of ...", "must be positive"), so
  the HTTP layer can return a precise 400 instead of a stack trace.

* **Round-trip codecs** — ``spec_to_dict``/``spec_from_dict`` and
  ``result_to_dict``/``result_from_dict`` are exact: floats serialize via
  ``repr`` semantics (Python's ``json`` emits the shortest round-tripping
  decimal), so ``spec_from_dict(spec_to_dict(s))`` runs bit-identically
  to ``s`` and a stored :class:`~repro.metrics.accounting.RunResult`
  compares equal to the in-process original. The canonical spec dict is
  also the hashing substrate of :meth:`SimulationSpec.spec_hash`.

Both directions run on the dataclass-driven codec of :mod:`repro.codec`.
This module only registers the wire vocabulary it cannot derive from the
dataclasses: the ``kind`` → class registries of the polymorphic families
(demand patterns, arrival processes, rate shapes, job mixes), the
scheduler strings and policy objects, the ``{"app": ...}`` /
``{"microbench": ...}`` application references, the ``{"paper": [...]}``
mix palette, and the spec's cross-field rules.

Wire format sketch (see README "Simulation service")::

    {
      "tenant": "alice",
      "label": "cg-vs-window",
      "spec": {
        "targets": [{"app": "CG", "work_scale": 0.05}],
        "background": [{"microbench": "BBMA"}, {"microbench": "BBMA"}],
        "scheduler": {"policy": "quanta_window", "window_length": 5},
        "seed": 7
      }
    }

Application specs are either inline (``{"name": ..., "n_threads": ...,
"pattern": {"kind": "constant", ...}}``), a paper application reference
(``{"app": "CG", "work_scale": 0.1}``) or a microbenchmark reference
(``{"microbench": "BBMA"}``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

from ..audit.checks import AuditReport
from ..codec import (
    Codec,
    Family,
    SpecValidationError,
    build,
    expect_dict,
    expect_float,
    expect_str,
    fail,
    reject_unknown,
)
from ..config import canonical_hash
from ..core.policies import (
    BandwidthPolicy,
    EwmaPolicy,
    LatestQuantumPolicy,
    OraclePolicy,
    QuantaWindowPolicy,
    RandomGangPolicy,
)
from ..core.policies_model import ModelDrivenPolicy
from ..dynamic.arrivals import (
    ArrivalProcess,
    DiurnalShape,
    FlashCrowdShape,
    MMPPBurstyArrivals,
    PoissonArrivals,
    RateShape,
    ShapedArrivals,
    TraceArrivals,
)
from ..dynamic.config import (
    BurstyMix,
    HotspotMix,
    JobMix,
    SequentialMix,
    ZipfianMix,
    paper_mix,
)
from ..errors import ConfigError, WorkloadError
from ..experiments.base import SimulationSpec
from ..faults.injector import FaultStats
from ..metrics.accounting import RunResult
from ..metrics.queueing import DynamicStats
from ..workloads.base import ApplicationSpec
from ..workloads.patterns import (
    ConstantPattern,
    DemandPattern,
    JitterPattern,
    MarkovBurstPattern,
    PhasedPattern,
    TracePattern,
)

__all__ = [
    "SpecValidationError",
    "SubmitRequest",
    "parse_submit_request",
    "spec_from_dict",
    "spec_to_dict",
    "spec_dict_hash",
    "scheduler_from_json",
    "scheduler_to_json",
    "result_from_dict",
    "result_to_dict",
    "audit_from_dict",
    "audit_to_dict",
]


# --------------------------------------------------------------------------- application specs


def _get(payload: dict, key: str, path: str) -> Any:
    if key not in payload:
        fail(path, f"missing required field {key!r}")
    return payload[key]


def app_spec_from_dict(payload: Any, path: str = "app") -> ApplicationSpec:
    """Decode an application spec: inline, ``{"app": ...}`` or ``{"microbench": ...}``."""
    payload = expect_dict(payload, path)
    if "app" in payload:
        reject_unknown(payload, ("app", "work_scale"), path)
        from ..workloads.suites import paper_app, paper_app_names

        name = expect_str(payload["app"], f"{path}.app")
        try:
            spec = paper_app(name)
        except (KeyError, WorkloadError):
            fail(
                f"{path}.app",
                f"unknown paper application {name!r}; "
                f"expected one of {', '.join(paper_app_names())}",
            )
        scale = expect_float(payload.get("work_scale", 1.0), f"{path}.work_scale")
        if scale <= 0:
            fail(f"{path}.work_scale", f"must be positive, got {scale}")
        if scale == 1.0:
            return spec
        return build(spec.scaled, {"work_scale": scale}, f"{path}.work_scale")
    if "microbench" in payload:
        reject_unknown(payload, ("microbench", "work_us"), path)
        from ..workloads.microbench import bbma_spec, nbbma_spec

        name = expect_str(payload["microbench"], f"{path}.microbench")
        factory = {"BBMA": bbma_spec, "nBBMA": nbbma_spec}.get(name)
        if factory is None:
            fail(f"{path}.microbench", f"unknown microbenchmark {name!r}; expected BBMA or nBBMA")
        if "work_us" not in payload:
            return factory()
        work_us = expect_float(payload["work_us"], f"{path}.work_us")
        return build(factory, {"work_us": work_us}, f"{path}.work_us")
    return build(ApplicationSpec, _CODEC.decode_fields(ApplicationSpec, payload, path), path)


# --------------------------------------------------------------------------- job mixes


def job_mix_from_dict(payload: Any, path: str = "mix") -> JobMix:
    """Decode a job mix: explicit entries or a ``{"paper": [...]}`` palette.

    An optional ``kind`` tag (plus its parameters) selects a skewed or
    correlated family over the same palette; absent, the mix is the plain
    weighted one.
    """
    cls = _CODEC.family_member(JobMix, payload, path)
    given = None
    if "paper" in payload:
        names = _CODEC.from_json(list[str], payload["paper"], f"{path}.paper")
        scale = expect_float(payload.get("work_scale", 1.0), f"{path}.work_scale")
        try:
            given = {"entries": paper_mix(names, work_scale=scale).entries}
        except (ConfigError, WorkloadError, KeyError) as exc:
            fail(f"{path}.paper", str(exc))
        payload = {k: v for k, v in payload.items() if k not in ("paper", "work_scale")}
    kwargs = _CODEC.decode_fields(cls, payload, path, allowed=("kind",), given=given)
    return build(cls, kwargs, path)


# --------------------------------------------------------------------------- schedulers

_KERNEL_SCHEDULERS = ("linux", "linux26", "dedicated", "gang")

#: policy name -> (class, the constructor fields it adds to the common ones)
_POLICIES: dict[str, tuple[type, dict[str, Any]]] = {
    "latest_quantum": (LatestQuantumPolicy, {}),
    "quanta_window": (QuantaWindowPolicy, {"window_length": int}),
    "ewma": (EwmaPolicy, {"alpha": float}),
    "model_driven": (
        ModelDrivenPolicy,
        {
            "window_length": int,
            "idle_penalty": float,
            "fairness_weight": float,
            "saturation_inflation": float,
            "use_peak": bool,
        },
    ),
    "random_gang": (RandomGangPolicy, {}),
    "oracle": (OraclePolicy, {"true_rates": dict[str, float]}),
}
_POLICY_NAMES = {cls: name for name, (cls, _) in _POLICIES.items()}
_COMMON_POLICY_FIELDS = {"bus_capacity_txus": float, "fitness_scale": float, "incremental": bool}


def scheduler_from_json(payload: Any, path: str = "scheduler") -> str | BandwidthPolicy:
    """Decode a scheduler: a kernel name string or a policy object."""
    if isinstance(payload, str):
        if payload not in _KERNEL_SCHEDULERS:
            fail(
                path,
                f"unknown scheduler {payload!r}; expected one of "
                f"{', '.join(_KERNEL_SCHEDULERS)} or a policy object "
                f"{{'policy': ...}}",
            )
        return payload
    payload = expect_dict(payload, path)
    name = expect_str(_get(payload, "policy", path), f"{path}.policy")
    if name not in _POLICIES:
        fail(
            f"{path}.policy",
            f"unknown policy {name!r}; expected one of {', '.join(sorted(_POLICIES))}",
        )
    factory, extras = _POLICIES[name]
    fields = {**extras, **_COMMON_POLICY_FIELDS}
    reject_unknown(payload, ["policy", *fields], path)
    if name == "oracle" and "true_rates" not in payload:
        fail(path, "missing required field 'true_rates'")
    kwargs = {
        k: _CODEC.from_json(hint, payload[k], f"{path}.{k}")
        for k, hint in fields.items()
        if k in payload
    }
    return build(factory, kwargs, path)


def scheduler_to_json(scheduler: str | BandwidthPolicy) -> str | dict[str, Any]:
    """Encode a scheduler to its wire form (the canonical hash substrate)."""
    if isinstance(scheduler, str):
        return scheduler
    if not isinstance(scheduler, BandwidthPolicy):
        raise ConfigError(f"cannot serialize scheduler {scheduler!r}")
    if scheduler._fitness_fn is not None:
        raise ConfigError(
            "a policy with a custom fitness_fn has no wire format; "
            "submit fitness_scale-configured Equation-1 policies instead"
        )
    name = next((_POLICY_NAMES[c] for c in type(scheduler).__mro__ if c in _POLICY_NAMES), None)
    if name is None:
        raise ConfigError(
            f"cannot serialize policy {type(scheduler).__name__}; "
            "only the built-in policies have a wire format"
        )
    out: dict[str, Any] = {
        "policy": name,
        "bus_capacity_txus": scheduler.bus_capacity_txus,
        "fitness_scale": scheduler._fitness_scale,
        "incremental": scheduler.incremental,
    }
    if name == "oracle":
        out["true_rates"] = dict(sorted(scheduler._true.items()))
    else:
        out.update((k, getattr(scheduler, k)) for k in _POLICIES[name][1])
    return out


# --------------------------------------------------------------------------- the codec

_CODEC = Codec(
    families={
        DemandPattern: Family("pattern", {
            "constant": ConstantPattern,
            "phased": PhasedPattern,
            "markov": MarkovBurstPattern,
            "jitter": JitterPattern,
            "trace": TracePattern,
        }),
        ArrivalProcess: Family("arrival", {
            "poisson": PoissonArrivals,
            "mmpp": MMPPBurstyArrivals,
            "trace": TraceArrivals,
            "shaped": ShapedArrivals,
        }),
        RateShape: Family("rate-shape", {"diurnal": DiurnalShape, "flash": FlashCrowdShape}),
        # A plain weighted mix travels untagged, keeping the wire format
        # (and the spec hashes) it had before the other families existed.
        JobMix: Family("mix", {
            "weighted": JobMix,
            "zipfian": ZipfianMix,
            "hotspot": HotspotMix,
            "sequential": SequentialMix,
            "bursty": BurstyMix,
        }, untagged="weighted"),
    },
    decoders={
        ApplicationSpec: app_spec_from_dict,
        JobMix: job_mix_from_dict,
        str | BandwidthPolicy: scheduler_from_json,
    },
    encoders={BandwidthPolicy: scheduler_to_json},
    names=(AuditReport, DynamicStats, FaultStats),
)

job_mix_to_dict = arrivals_to_dict = _CODEC.to_json
arrivals_from_dict = partial(_CODEC.from_json, ArrivalProcess)


# --------------------------------------------------------------------------- simulation specs

#: Pure-observability spec flags left out of the spec hash.
_UNHASHED = ("profile", "audit")


def spec_from_dict(payload: Any, path: str = "spec") -> SimulationSpec:
    """Decode and fully validate a :class:`SimulationSpec` payload."""
    payload = expect_dict(payload, path)
    kwargs = _CODEC.decode_fields(SimulationSpec, {"targets": [], **payload}, path)
    if not kwargs["targets"] and not kwargs.get("arrivals") and kwargs.get("dynamic") is None:
        fail(
            f"{path}.targets",
            "a simulation needs at least one target application "
            "(or 'arrivals' / a 'dynamic' workload)",
        )
    if kwargs.get("kernel", "linux") not in ("linux", "linux26"):
        fail(
            f"{path}.kernel",
            f"unknown kernel substrate {kwargs['kernel']!r}; expected linux or linux26",
        )
    # np.random.default_rng rejects negative seeds only at run time;
    # catch it at submission so the client gets a 400, not a failed run.
    if kwargs.get("seed", 0) < 0:
        fail(f"{path}.seed", f"seed must be non-negative, got {kwargs['seed']}")
    for i, (at_us, _) in enumerate(kwargs.get("arrivals", ())):
        if at_us < 0:
            fail(f"{path}.arrivals[{i}][0]", f"arrival time must be non-negative, got {at_us}")
    spec = build(SimulationSpec, kwargs, path)
    # Cross-field rules _build() would only hit at run time — check now so
    # the submitter gets a 400, not a failed run.
    if (spec.arrivals or spec.dynamic is not None) and spec.scheduler in ("dedicated", "gang"):
        fail(
            f"{path}.scheduler",
            f"dynamic arrivals need a time-sharing scheduler; "
            f"{spec.scheduler!r} has a static job set",
        )
    if spec.faults is not None and spec.faults.enabled and not isinstance(spec.scheduler, BandwidthPolicy):
        fail(
            f"{path}.faults",
            "fault injection requires a bandwidth-policy scheduler "
            "(the fault surface only exists under a CPU manager)",
        )
    return spec


def spec_to_dict(spec: SimulationSpec) -> dict[str, Any]:
    """Encode a spec as its fully-explicit canonical dict.

    Every field is present with its effective value (defaults are
    materialized), so the dict — not the submitter's partial payload —
    is the substrate of :meth:`SimulationSpec.spec_hash`.
    """
    return _CODEC.to_json(spec)


def spec_dict_hash(payload: dict[str, Any]) -> str:
    """The :meth:`SimulationSpec.spec_hash` of a :func:`spec_to_dict` payload.

    Lets a caller that already holds the encoded spec hash it without
    encoding it again.
    """
    return canonical_hash({k: v for k, v in payload.items() if k not in _UNHASHED})


# --------------------------------------------------------------------------- submit requests

_TENANT_MAX = 64
_LABEL_MAX = 200


@dataclass(frozen=True)
class SubmitRequest:
    """A validated run submission.

    Attributes
    ----------
    spec:
        The fully-validated simulation to run.
    tenant:
        Fair-queueing identity; each tenant gets a round-robin share of
        the worker pool no matter how many jobs other tenants flood in.
    label:
        Free-form caller annotation stored with the run.
    no_cache:
        Force execution even when a completed run with the same
        ``spec_hash`` exists (e.g. to measure wall-time variance).
    """

    spec: SimulationSpec
    tenant: str = "default"
    label: str | None = None
    no_cache: bool = False


def parse_submit_request(payload: Any) -> SubmitRequest:
    """Validate a raw JSON submission body into a :class:`SubmitRequest`."""
    payload = expect_dict(payload, "request")
    reject_unknown(payload, ("spec", "tenant", "label", "no_cache"), "request")
    tenant = expect_str(payload.get("tenant", "default"), "request.tenant")
    if not tenant or len(tenant) > _TENANT_MAX:
        fail("request.tenant", f"must be 1..{_TENANT_MAX} characters, got {len(tenant)}")
    label = payload.get("label")
    if label is not None:
        label = expect_str(label, "request.label")
        if len(label) > _LABEL_MAX:
            fail("request.label", f"must be at most {_LABEL_MAX} characters, got {len(label)}")
    return SubmitRequest(
        spec=spec_from_dict(_get(payload, "spec", "request"), "request.spec"),
        tenant=tenant,
        label=label,
        no_cache=_CODEC.from_json(bool, payload.get("no_cache", False), "request.no_cache"),
    )


# --------------------------------------------------------------------------- run results


def audit_to_dict(audit: AuditReport | None) -> dict[str, Any] | None:
    """Encode an :class:`~repro.audit.AuditReport` (or ``None``) as JSON.

    Shared by :func:`result_to_dict` and the result store's persisted
    ``audit_json`` column (the ``GET /v1/runs/<id>/audit`` body).
    """
    return _CODEC.to_json(audit)


def audit_from_dict(payload: dict[str, Any] | None) -> AuditReport | None:
    """Decode :func:`audit_to_dict` output back into an ``AuditReport``."""
    return _CODEC.from_json(AuditReport | None, payload, "audit")


def result_to_dict(result: RunResult) -> dict[str, Any]:
    """Encode a :class:`RunResult` for storage. Exact: floats round-trip
    bit-for-bit through JSON, so ``result_from_dict(result_to_dict(r)) == r``
    including the ``dynamic`` and ``faults`` sections that participate in
    equality. Observability fields (solver counters, profile, audit
    summary) are carried for queryability but excluded from equality by
    the dataclass itself."""
    return _CODEC.to_json(result)


def result_from_dict(payload: dict[str, Any]) -> RunResult:
    """Decode a stored :class:`RunResult`. Inverse of :func:`result_to_dict`."""
    return _CODEC.from_json(RunResult, payload, "result")
