"""Request schema validation and the spec/result wire codecs.

Two halves:

* **validation** — malformed payloads fail with
  :class:`~repro.service.schemas.SpecValidationError` whose ``path``
  names the offending field (the actionable-4xx contract);
* **codecs** — ``spec_to_dict``/``spec_from_dict`` and
  ``result_to_dict``/``result_from_dict`` are exact inverses on real
  simulation objects, including the nested ``DynamicStats``/
  ``FaultStats``/``AuditReport`` sections.
"""

import pickle

import pytest

from repro.core.policies import EwmaPolicy, LatestQuantumPolicy, QuantaWindowPolicy
from repro.core.policies_model import ModelDrivenPolicy
from repro.experiments.base import run_simulation
from repro.service.schemas import (
    SpecValidationError,
    parse_submit_request,
    result_from_dict,
    result_to_dict,
    spec_from_dict,
    spec_to_dict,
)


def _minimal(**spec_overrides) -> dict:
    spec = {
        "targets": [{"app": "CG", "work_scale": 0.02}],
        "background": [{"microbench": "BBMA"}],
        "scheduler": "linux",
        "max_time_us": 200_000,
    }
    spec.update(spec_overrides)
    return {"spec": spec}


def _error_path(payload) -> str:
    with pytest.raises(SpecValidationError) as excinfo:
        parse_submit_request(payload)
    return excinfo.value.path


class TestRequestValidation:
    def test_minimal_request_parses(self):
        request = parse_submit_request(_minimal())
        assert request.tenant == "default"
        assert request.label is None
        assert not request.no_cache

    def test_tenant_label_no_cache(self):
        payload = _minimal()
        payload.update(tenant="team-a", label="sweep 1", no_cache=True)
        request = parse_submit_request(payload)
        assert (request.tenant, request.label, request.no_cache) == (
            "team-a", "sweep 1", True
        )

    def test_missing_spec_names_path(self):
        with pytest.raises(SpecValidationError, match="spec"):
            parse_submit_request({})

    def test_non_dict_body(self):
        assert _error_path([1, 2]) == "request"

    def test_unknown_top_level_field(self):
        payload = _minimal()
        payload["bogus"] = 1
        assert _error_path(payload) == "request"

    def test_unknown_spec_field(self):
        assert _error_path(_minimal(bogus=1)) == "request.spec"

    def test_bad_app_name_names_element(self):
        payload = _minimal(targets=[{"app": "NOPE"}])
        assert _error_path(payload) == "request.spec.targets[0].app"

    def test_bad_scheduler_string(self):
        assert _error_path(_minimal(scheduler="fifo")) == "request.spec.scheduler"

    def test_bad_policy_name(self):
        payload = _minimal(scheduler={"policy": "no_such"})
        assert _error_path(payload) == "request.spec.scheduler.policy"

    def test_bad_policy_parameter_type(self):
        payload = _minimal(scheduler={"policy": "quanta_window", "window_length": "x"})
        assert _error_path(payload) == "request.spec.scheduler.window_length"

    def test_negative_seed_rejected_with_path(self):
        assert _error_path(_minimal(seed=-1)) == "request.spec.seed"

    def test_bool_is_not_an_int(self):
        assert _error_path(_minimal(seed=True)) == "request.spec.seed"

    def test_nan_rejected(self):
        assert _error_path(_minimal(max_time_us=float("nan"))) == (
            "request.spec.max_time_us"
        )

    def test_empty_workload_rejected(self):
        payload = {"spec": {"targets": [], "scheduler": "linux"}}
        assert _error_path(payload) == "request.spec.targets"

    def test_arrivals_under_dedicated_rejected(self):
        payload = _minimal(
            scheduler="dedicated",
            arrivals=[[1_000.0, {"app": "SP", "work_scale": 0.02}]],
        )
        assert _error_path(payload) == "request.spec.scheduler"

    def test_bad_tenant_rejected(self):
        payload = _minimal()
        payload["tenant"] = ""
        assert _error_path(payload) == "request.tenant"

    def test_error_body_is_actionable(self):
        try:
            parse_submit_request(_minimal(scheduler="fifo"))
        except SpecValidationError as exc:
            body = exc.to_dict()
            assert body["type"] == "validation"
            assert body["path"] == "request.spec.scheduler"
            assert "fifo" in body["message"]
        else:  # pragma: no cover
            pytest.fail("expected SpecValidationError")

    def test_error_survives_pickling(self):
        # Errors cross process boundaries (worker -> parent); the path
        # annotation must survive the trip.
        err = SpecValidationError("request.spec.seed", "must be >= 0")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.path == err.path and clone.message == err.message


class TestSchedulerCodec:
    @pytest.mark.parametrize(
        "policy",
        [
            QuantaWindowPolicy(window_length=5),
            EwmaPolicy(alpha=0.3),
            ModelDrivenPolicy(idle_penalty=0.2, fairness_weight=0.1),
            LatestQuantumPolicy(fitness_scale=500.0),
        ],
    )
    def test_policy_round_trip(self, policy):
        spec = spec_from_dict(_minimal()["spec"])
        payload = spec_to_dict(spec)
        from repro.service.schemas import scheduler_from_json, scheduler_to_json

        decoded = scheduler_from_json(scheduler_to_json(policy), "spec.scheduler")
        assert type(decoded) is type(policy)
        assert scheduler_to_json(decoded) == scheduler_to_json(policy)
        assert payload["scheduler"] == "linux"


class TestResultCodec:
    def test_static_result_round_trips_exactly(self):
        spec = spec_from_dict(_minimal()["spec"])
        result = run_simulation(spec)
        decoded = result_from_dict(result_to_dict(result))
        assert decoded == result  # dataclass equality: bit-identical
        # compare=False observability fields round-trip too.
        assert decoded.bus_solve_calls == result.bus_solve_calls
        assert decoded.makespan_us == result.makespan_us

    def test_dynamic_result_round_trips_exactly(self):
        spec = spec_from_dict(
            {
                "targets": [],
                "scheduler": {"policy": "quanta_window"},
                "dynamic": {
                    "arrivals": {"kind": "poisson", "rate_per_s": 2.0},
                    "mix": {"paper": ["CG", "SP"], "work_scale": 0.02},
                    "n_jobs": 3,
                },
                "seed": 11,
            }
        )
        result = run_simulation(spec)
        assert result.dynamic is not None
        decoded = result_from_dict(result_to_dict(result))
        assert decoded == result
        assert decoded.dynamic == result.dynamic

    def test_result_json_is_canonically_serializable(self):
        from repro.config import canonical_json

        spec = spec_from_dict(_minimal()["spec"])
        result = run_simulation(spec)
        text = canonical_json(result_to_dict(result))
        assert isinstance(text, str) and text.startswith("{")


class TestArrivalShapeCodec:
    def _round_trip(self, arrivals):
        from repro.service.schemas import arrivals_from_dict, arrivals_to_dict

        return arrivals_from_dict(arrivals_to_dict(arrivals), "dynamic.arrivals")

    def test_shaped_round_trips(self):
        from repro.dynamic import DiurnalShape, PoissonArrivals, ShapedArrivals

        proc = ShapedArrivals(
            base=PoissonArrivals(rate_per_s=2.0),
            shape=DiurnalShape(period_s=30.0, amplitude=0.4, phase=0.1),
        )
        assert self._round_trip(proc) == proc

    def test_nested_shaped_round_trips(self):
        from repro.dynamic import (
            DiurnalShape,
            FlashCrowdShape,
            PoissonArrivals,
            ShapedArrivals,
        )

        proc = ShapedArrivals(
            base=ShapedArrivals(
                base=PoissonArrivals(rate_per_s=2.0),
                shape=DiurnalShape(period_s=30.0, amplitude=0.4),
            ),
            shape=FlashCrowdShape(at_s=5.0, duration_s=2.0, magnitude=3.0),
        )
        assert self._round_trip(proc) == proc

    def test_shaped_payload_validated(self):
        from repro.service.schemas import arrivals_from_dict

        with pytest.raises(SpecValidationError):
            arrivals_from_dict({"kind": "shaped"}, "dynamic.arrivals")
        with pytest.raises(SpecValidationError):
            arrivals_from_dict(
                {
                    "kind": "shaped",
                    "base": {"kind": "poisson", "rate_per_s": 1.0},
                    "shape": {"kind": "lunar"},
                },
                "dynamic.arrivals",
            )


class TestJobMixCodec:
    def _round_trip(self, mix):
        from repro.service.schemas import job_mix_from_dict, job_mix_to_dict

        return job_mix_from_dict(job_mix_to_dict(mix), "dynamic.mix")

    def test_plain_mix_payload_untagged(self):
        from repro.dynamic import paper_mix
        from repro.service.schemas import job_mix_to_dict

        payload = job_mix_to_dict(paper_mix(work_scale=0.05))
        # The pre-existing wire format: no "kind" tag, so old spec hashes
        # for plain mixes are unchanged.
        assert set(payload) == {"entries"}

    def test_family_mixes_round_trip(self):
        from repro.dynamic import ZipfianMix, paper_mix

        mix = ZipfianMix(entries=paper_mix(work_scale=0.05).entries, exponent=1.3)
        decoded = self._round_trip(mix)
        assert type(decoded) is type(mix)
        assert decoded == mix

    def test_unknown_kind_rejected(self):
        from repro.service.schemas import job_mix_from_dict

        with pytest.raises(SpecValidationError):
            job_mix_from_dict(
                {"kind": "pareto", "paper": ["CG"], "work_scale": 0.05},
                "dynamic.mix",
            )


class TestStreamingResultCodec:
    def _dynamic_spec(self, **extra):
        payload = {
            "targets": [],
            "scheduler": {"policy": "quanta_window"},
            "dynamic": {
                "arrivals": {"kind": "poisson", "rate_per_s": 2.0},
                "mix": {"paper": ["CG", "SP"], "work_scale": 0.02},
                "n_jobs": 3,
                **extra,
            },
            "seed": 11,
        }
        return spec_from_dict(payload)

    def test_record_jobs_round_trips_in_spec(self):
        from repro.service.schemas import spec_to_dict

        spec = self._dynamic_spec(record_jobs=False)
        assert spec.dynamic.record_jobs is False
        payload = spec_to_dict(spec)
        assert payload["dynamic"]["record_jobs"] is False
        # Policy objects don't define __eq__; the dynamic section does.
        assert spec_from_dict(payload).dynamic == spec.dynamic

    def test_records_off_result_round_trips_exactly(self):
        result = run_simulation(self._dynamic_spec(record_jobs=False))
        assert result.dynamic.jobs == ()
        assert result.dynamic.streaming is not None
        decoded = result_from_dict(result_to_dict(result))
        assert decoded == result
        assert decoded.dynamic.streaming == result.dynamic.streaming

    def test_streaming_summary_survives_json(self):
        from repro.config import canonical_json
        import json

        result = run_simulation(self._dynamic_spec(record_jobs=False))
        text = canonical_json(result_to_dict(result))
        decoded = result_from_dict(json.loads(text))
        assert decoded.dynamic.streaming == result.dynamic.streaming


class TestTypedConfigSections:
    """Config sections decode through their field types, like every
    other section: wrong types are 400s with a path, and an int in a
    float field is the same configuration as its float form."""

    def test_fractional_cpu_count_rejected_with_path(self):
        payload = _minimal(machine={"n_cpus": 2.5})
        assert _error_path(payload) == "request.spec.machine.n_cpus"

    def test_bool_capacity_rejected_with_path(self):
        payload = _minimal(machine={"bus": {"capacity_txus": True}})
        assert _error_path(payload) == "request.spec.machine.bus.capacity_txus"

    @pytest.mark.parametrize(
        "section, field, path",
        [
            ("manager", {"window_length": 2.0}, "request.spec.manager.window_length"),
            ("linux", {"tick_us": "10ms"}, "request.spec.linux.tick_us"),
            ("faults", {"pmc_jitter": None}, "request.spec.faults.pmc_jitter"),
            ("machine", {"cache": {"line_bytes": 64.0}}, "request.spec.machine.cache.line_bytes"),
        ],
    )
    def test_wrong_types_in_other_sections(self, section, field, path):
        assert _error_path(_minimal(**{section: field})) == path

    def test_int_and_float_capacity_hash_alike(self):
        as_int = spec_from_dict(_minimal(machine={"bus": {"capacity_txus": 30}})["spec"])
        as_float = spec_from_dict(_minimal(machine={"bus": {"capacity_txus": 30.0}})["spec"])
        assert as_int.machine.bus.capacity_txus == 30.0
        assert isinstance(as_int.machine.bus.capacity_txus, float)
        assert as_int.spec_hash() == as_float.spec_hash()

    def test_int_quantum_hashes_like_float_quantum(self):
        as_int = spec_from_dict(_minimal(manager={"quantum_us": 100_000})["spec"])
        as_float = spec_from_dict(_minimal(manager={"quantum_us": 100_000.0})["spec"])
        assert as_int.spec_hash() == as_float.spec_hash()


class TestWorkBounds:
    """Application work must stay positive and finite through every
    reference form; before, these escaped as 500s."""

    def test_non_positive_microbench_work(self):
        payload = _minimal(background=[{"microbench": "BBMA", "work_us": -1}])
        assert _error_path(payload) == "request.spec.background[0].work_us"

    def test_work_scale_overflowing_to_infinity(self):
        payload = _minimal(targets=[{"app": "CG", "work_scale": 1e308}])
        assert _error_path(payload) == "request.spec.targets[0].work_scale"

    def test_integer_too_large_for_a_float(self):
        assert _error_path(_minimal(max_time_us=10**400)) == "request.spec.max_time_us"
