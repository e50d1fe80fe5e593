"""Property-based fuzzing of the service boundary.

Three properties, each under a derandomized hypothesis profile so CI
runs the same examples every time:

* arbitrary JSON — and golden spec payloads with one node replaced,
  added or removed — fed to :func:`parse_submit_request` either parses
  into a spec that encodes canonically or raises
  :class:`SpecValidationError` whose path starts at ``request``; nothing
  else escapes (a deterministic sweep also sets every scalar of every
  golden payload to each of a few edge values);
* the same bodies POSTed to the WSGI app get a 2xx or a 4xx, never a
  5xx (the service is not started, so accepted runs only queue);
* generated valid specs survive ``spec_to_dict`` → JSON →
  ``spec_from_dict`` unchanged, with an equal ``spec_hash()``.
"""

import copy
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import canonical_json
from repro.service import ResultStore, SimulationService
from repro.service.api import create_wsgi_app
from repro.service.schemas import (
    SpecValidationError,
    parse_submit_request,
    scheduler_to_json,
    spec_from_dict,
    spec_to_dict,
)
from repro.workloads.suites import paper_app_names

FUZZ = settings(derandomize=True, deadline=None, max_examples=300, database=None)

_GOLDEN = json.loads(Path(__file__).with_name("golden_codec.json").read_text())["specs"]
_SEEDS = [case[form] for case in _GOLDEN.values() for form in ("payload", "canonical")]


def _keys(node) -> set[str]:
    if isinstance(node, dict):
        return set(node).union(*map(_keys, node.values()))
    return set().union(*map(_keys, node)) if isinstance(node, list) else set()


#: Every field name the golden payloads use, for "add a known field" mutations.
_FIELDS = sorted(set().union(*map(_keys, _SEEDS)))
_edge_numbers = st.sampled_from([0, -1, -0.5, 1e-320, 1e308, -1e308, 2**64, 10**400])

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _edge_numbers
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _mutated(draw) -> dict:
    """A golden spec payload with one node replaced, added or removed."""
    body = {"spec": copy.deepcopy(draw(st.sampled_from(_SEEDS)))}
    parent, key = body, "spec"
    while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.integers(0, 3)):
        child = parent[key]
        parent, key = child, draw(st.sampled_from(
            sorted(child) if isinstance(child, dict) else range(len(child))
        ))
    action = draw(st.sampled_from(["replace", "add", "delete"]))
    if action == "replace" or key == "spec":
        parent[key] = draw(_json)
    elif action == "add" and isinstance(parent[key], dict):
        parent[key][draw(st.sampled_from(_FIELDS) | st.text(max_size=12))] = draw(_json)
    elif isinstance(parent, dict):
        del parent[key]
    else:
        parent.pop(key)
    return body


_bodies = _json | _mutated() | st.fixed_dictionaries({"spec": _json})


def _accepts_or_rejects_with_path(body) -> None:
    """Parse ``body``; an accepted spec must also encode canonically, as
    the submit path needs it to."""
    try:
        spec = parse_submit_request(body).spec
    except SpecValidationError as exc:
        assert exc.path.startswith("request"), exc.path
    else:
        canonical_json(spec_to_dict(spec))


@FUZZ
@given(_bodies)
def test_bad_payloads_raise_only_path_annotated_errors(body):
    _accepts_or_rejects_with_path(body)


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaf_paths(child, (*path, key))
    else:
        yield path


@pytest.mark.parametrize("edge", [-1, 0, 1e308, 10**400, True, "x", None, []])
def test_every_payload_leaf_takes_an_edge_value(edge):
    """Deterministic sweep: each scalar of each golden submitted payload,
    replaced in turn by an edge value."""
    for case in _GOLDEN.values():
        for path in _leaf_paths(case["payload"]):
            body = {"spec": copy.deepcopy(case["payload"])}
            node = body["spec"]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = edge
            _accepts_or_rejects_with_path(body)


@pytest.fixture(scope="module")
def app():
    store = ResultStore(":memory:")
    service = SimulationService(store, queue_depth=100_000, jobs=1)
    yield create_wsgi_app(service)
    store.close()


def _post(app, body) -> int:
    raw = json.dumps(body).encode()
    environ = {
        "REQUEST_METHOD": "POST",
        "PATH_INFO": "/v1/runs",
        "QUERY_STRING": "",
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    status = []
    b"".join(app(environ, lambda line, headers: status.append(int(line.split()[0]))))
    return status[0]


@FUZZ
@given(body=_bodies)
def test_bad_bodies_get_4xx_never_5xx(app, body):
    status = _post(app, body)
    assert status in (200, 202) or 400 <= status < 500, status


# --------------------------------------------------------------------------- valid specs

_pos = st.floats(min_value=1e-3, max_value=1e7) | st.integers(1, 10**7)
_rate = st.floats(min_value=0.0, max_value=50.0) | st.integers(0, 50)
_unit = st.floats(min_value=0.0, max_value=0.999)


def _kind(kind: str, **fields):
    return st.fixed_dictionaries({"kind": st.just(kind)}, optional=fields)


def _sorted_pair(lo, hi):
    return st.tuples(lo, hi).map(sorted)


_pairs = st.lists(st.tuples(_pos, _rate).map(list), min_size=1, max_size=3)
_patterns = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"), "rate_txus": _rate}),
    st.fixed_dictionaries({"kind": st.just("phased"), "phases": _pairs}),
    _sorted_pair(_rate, _rate).flatmap(lambda r: st.fixed_dictionaries(
        {"kind": st.just("markov"), "low_rate_txus": st.just(r[0]),
         "high_rate_txus": st.just(r[1]), "mean_low_work_us": _pos, "mean_high_work_us": _pos},
        optional={"start_high": st.booleans()},
    )),
    st.fixed_dictionaries(
        {"kind": st.just("jitter"), "base_rate_txus": _rate},
        optional={"jitter": _unit, "chunk_work_us": _pos},
    ),
    st.fixed_dictionaries(
        {"kind": st.just("trace"), "segments": _pairs},
        optional={"tail_rate_txus": st.none() | _rate},
    ),
)
_apps = st.one_of(
    st.fixed_dictionaries(
        {"name": st.text(min_size=1, max_size=8), "n_threads": st.integers(1, 8),
         "work_per_thread_us": _pos, "pattern": _patterns},
        optional={"footprint_lines": _rate, "migration_sensitivity": _unit,
                  "io_interval_work_us": st.none() | _pos, "io_duration_us": _rate},
    ),
    st.fixed_dictionaries(
        {"app": st.sampled_from(paper_app_names())},
        optional={"work_scale": st.floats(min_value=1e-3, max_value=2.0)},
    ),
    st.fixed_dictionaries(
        {"microbench": st.sampled_from(["BBMA", "nBBMA"])}, optional={"work_us": _pos},
    ),
)
_policy_common = {
    "bus_capacity_txus": _pos, "fitness_scale": _pos, "incremental": st.booleans(),
}
_policies = st.one_of(
    st.fixed_dictionaries({"policy": st.just("latest_quantum")}, optional=_policy_common),
    st.fixed_dictionaries({"policy": st.just("quanta_window")},
                          optional={"window_length": st.integers(1, 9), **_policy_common}),
    st.fixed_dictionaries({"policy": st.just("ewma")},
                          optional={"alpha": st.floats(0.01, 1.0), **_policy_common}),
    st.fixed_dictionaries({"policy": st.just("model_driven")}, optional={
        "window_length": st.integers(1, 9), "idle_penalty": _unit,
        "fairness_weight": _unit, "use_peak": st.booleans(), **_policy_common,
    }),
)
_arrivals = st.deferred(lambda: st.one_of(
    st.fixed_dictionaries({"kind": st.just("poisson"), "rate_per_s": _pos}),
    _sorted_pair(_pos, _pos).flatmap(lambda r: st.fixed_dictionaries(
        {"kind": st.just("mmpp"), "rate_low_per_s": st.just(r[0]),
         "rate_high_per_s": st.just(r[1])},
        optional={"mean_low_s": _pos, "mean_high_s": _pos},
    )),
    st.fixed_dictionaries({"kind": st.just("trace"), "times_us": st.lists(
        st.floats(min_value=0.0, max_value=1e7), min_size=1, max_size=4, unique=True,
    ).map(sorted)}),
    st.fixed_dictionaries({"kind": st.just("shaped"), "base": _arrivals, "shape": st.one_of(
        _kind("diurnal", period_s=_pos, amplitude=_unit, phase=st.floats(-10.0, 10.0)),
        st.fixed_dictionaries({"kind": st.just("flash"), "at_s": _rate,
                               "duration_s": _pos, "magnitude": _pos}),
    )}),
))
_mix_family = st.one_of(
    st.just({}),
    st.just({"kind": "weighted"}),
    _kind("zipfian", exponent=_rate),
)
_mix_source = st.one_of(
    st.fixed_dictionaries({"entries": st.lists(
        st.tuples(_apps, _pos).map(list), min_size=1, max_size=3)}),
    st.fixed_dictionaries(
        {"paper": st.lists(st.sampled_from(paper_app_names()), min_size=1, max_size=3)},
        optional={"work_scale": st.floats(0.01, 1.0)},
    ),
)
_dynamic = st.fixed_dictionaries(
    {"arrivals": _arrivals,
     "mix": st.tuples(_mix_family, _mix_source).map(lambda p: {**p[0], **p[1]})},
    optional={"n_jobs": st.integers(1, 50), "max_in_service": st.integers(1, 8),
              "queue_capacity": st.none() | st.integers(1, 20), "record_jobs": st.booleans(),
              "watchdog_strict": st.booleans(), "warmup_frac": st.floats(0.0, 0.5)},
)
_specs = st.fixed_dictionaries(
    {"targets": st.lists(_apps, min_size=1, max_size=3)},
    optional={
        "background": st.lists(_apps, max_size=2),
        "scheduler": st.sampled_from(["linux", "linux26", "dedicated"]) | _policies,
        "kernel": st.sampled_from(["linux", "linux26"]),
        "seed": st.integers(0, 2**63),
        "max_time_us": _pos,
        "trace": st.booleans(),
        "timeline_period_us": st.none() | _pos,
        "dedicated_migration_interval_us": st.none() | _pos,
        "arrivals": st.lists(st.tuples(_rate, _apps).map(list), max_size=2),
        "dynamic": st.none() | _dynamic,
        "profile": st.booleans(),
        "audit": st.booleans(),
        "machine": st.fixed_dictionaries({}, optional={
            "n_cpus": st.integers(1, 64), "smt_ways": st.integers(1, 2),
            "bus": st.fixed_dictionaries({}, optional={
                "capacity_txus": _pos,
                "solver_mode": st.sampled_from(["bisect", "newton", "vector"]),
            }),
        }),
        "manager": st.fixed_dictionaries({}, optional={
            "quantum_us": _pos, "window_length": st.integers(1, 9),
            "signal_ack_deadline_us": st.none() | _pos,
        }),
        "linux": st.fixed_dictionaries(
            {}, optional={"tick_us": _pos, "default_ticks": st.integers(1, 9)}
        ),
        "faults": st.none() | st.fixed_dictionaries({}, optional={
            "pmc_jitter": _unit, "signal_drop_prob": _unit, "crash_mean_time_us": _pos,
        }),
    },
)


@FUZZ
@given(_specs)
def test_generated_specs_round_trip_with_equal_hash(payload):
    try:
        spec = spec_from_dict(payload)
    except SpecValidationError:
        assume(False)
    encoded = spec_to_dict(spec)
    again = spec_from_dict(json.loads(json.dumps(encoded)))
    assert canonical_json(spec_to_dict(again)) == canonical_json(encoded)
    assert again.spec_hash() == spec.spec_hash()
    # Policy objects compare by identity; everything else by value.
    assert scheduler_to_json(again.scheduler) == scheduler_to_json(spec.scheduler)
    assert replace(again, scheduler=spec.scheduler) == spec
