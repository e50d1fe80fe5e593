"""Golden wire-format fixtures for the service codecs.

``golden_codec.json`` pins, per case, a submitted spec payload, its
canonical ``spec_to_dict`` form and its ``spec_hash()``, plus stored
result payloads (static, dynamic with job records on and off, faulted,
audited). The file was written by the hand-written codecs that preceded
the dataclass-driven one, so these tests prove the rewrite kept every
canonical payload and every cache key byte-identical. Never regenerate
the file to make a failing case pass: a mismatch is a wire-format break.

Regenerate (only when the wire format changes on purpose)::

    PYTHONPATH=src python tests/service/test_golden_codec.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.config import canonical_json
from repro.service.schemas import (
    audit_from_dict,
    audit_to_dict,
    parse_submit_request,
    result_from_dict,
    result_to_dict,
    spec_from_dict,
    spec_to_dict,
)

GOLDEN = Path(__file__).with_name("golden_codec.json")

_CG = {"app": "CG", "work_scale": 0.02}
_BBMA = {"microbench": "BBMA"}


def _inline(kind: str, **pattern) -> dict:
    return {
        "name": f"inline-{kind}",
        "n_threads": 2,
        "work_per_thread_us": 50_000,
        "pattern": {"kind": kind, **pattern},
    }


def _dynamic(arrivals: dict, mix: dict | None = None, **extra) -> dict:
    return {
        "targets": [],
        "scheduler": {"policy": "quanta_window"},
        "dynamic": {
            "arrivals": arrivals,
            "mix": mix or {"paper": ["CG", "SP"], "work_scale": 0.02},
            **extra,
        },
    }


def _static(scheduler) -> dict:
    return {"targets": [_CG], "background": [_BBMA], "scheduler": scheduler}


_MIX_ENTRIES = [[_CG, 2], [{"microbench": "nBBMA", "work_us": 80_000}, 1.5]]

SPEC_CASES: dict[str, dict] = {
    # demand patterns (inline application form)
    "pattern_constant": {"targets": [_inline("constant", rate_txus=5)]},
    "pattern_phased": {"targets": [_inline("phased", phases=[[10_000, 2.0], [20_000, 8]])]},
    "pattern_markov": {
        "targets": [_inline(
            "markov", low_rate_txus=1.5, high_rate_txus=12, mean_low_work_us=30_000,
            mean_high_work_us=5_000.5, start_high=True,
        )]
    },
    "pattern_markov_defaults": {
        "targets": [_inline(
            "markov", low_rate_txus=1.5, high_rate_txus=12, mean_low_work_us=30_000,
            mean_high_work_us=5_000,
        )]
    },
    "pattern_jitter_defaults": {"targets": [_inline("jitter", base_rate_txus=3.25)]},
    "pattern_jitter": {
        "targets": [_inline("jitter", base_rate_txus=3.25, jitter=0.3, chunk_work_us=2_000)]
    },
    "pattern_trace": {
        "targets": [_inline("trace", segments=[[1_000, 4.0], [3_000.5, 0.5]], tail_rate_txus=2)]
    },
    "pattern_trace_no_tail": {"targets": [_inline("trace", segments=[[1_000, 4.0]])]},
    # application forms
    "app_inline_all_fields": {
        "targets": [{
            **_inline("constant", rate_txus=0.25),
            "footprint_lines": 1024,
            "migration_sensitivity": 0.4,
            "io_interval_work_us": 20_000,
            "io_duration_us": 500.5,
        }]
    },
    "app_paper_refs": {
        "targets": [_CG, {"app": "LU CB", "work_scale": 0.5}, {"app": "Water-nsqr"}],
    },
    "app_microbench_refs": {
        "targets": [_CG],
        "background": [_BBMA, {"microbench": "nBBMA"}, {"microbench": "BBMA", "work_us": 123_456}],
    },
    # kernel schedulers
    "sched_linux": _static("linux"),
    "sched_linux26": _static("linux26"),
    "sched_dedicated": {
        **_static("dedicated"), "dedicated_migration_interval_us": 250_000,
    },
    "sched_default": {"targets": [_CG]},
    # bandwidth policies
    "policy_latest_quantum": _static({"policy": "latest_quantum"}),
    "policy_quanta_window": _static({
        "policy": "quanta_window", "window_length": 7, "bus_capacity_txus": 30,
        "fitness_scale": 500, "incremental": False,
    }),
    "policy_ewma": _static({"policy": "ewma", "alpha": 0.3}),
    "policy_model_driven": _static({
        "policy": "model_driven", "window_length": 4, "idle_penalty": 0.2,
        "fairness_weight": 0.1, "saturation_inflation": 1.5, "use_peak": True,
    }),
    "policy_on_linux26": {**_static({"policy": "latest_quantum"}), "kernel": "linux26"},
    # arrival processes and rate shapes
    "arrivals_poisson": _dynamic({"kind": "poisson", "rate_per_s": 2}),
    "arrivals_mmpp_defaults": _dynamic(
        {"kind": "mmpp", "rate_low_per_s": 0.5, "rate_high_per_s": 4}
    ),
    "arrivals_mmpp": _dynamic({
        "kind": "mmpp", "rate_low_per_s": 0.5, "rate_high_per_s": 4,
        "mean_low_s": 2, "mean_high_s": 0.5,
    }),
    "arrivals_trace": _dynamic({"kind": "trace", "times_us": [0, 1_000.5, 25_000]}),
    "arrivals_shaped_nested": _dynamic({
        "kind": "shaped",
        "base": {
            "kind": "shaped",
            "base": {"kind": "poisson", "rate_per_s": 2.0},
            "shape": {"kind": "diurnal"},
        },
        "shape": {"kind": "flash", "at_s": 5, "duration_s": 2.5, "magnitude": 3},
    }),
    "arrivals_shaped_diurnal": _dynamic({
        "kind": "shaped",
        "base": {"kind": "mmpp", "rate_low_per_s": 1, "rate_high_per_s": 3},
        "shape": {"kind": "diurnal", "period_s": 30, "amplitude": 0.4, "phase": 0.1},
    }),
    # job mixes
    "mix_entries": _dynamic({"kind": "poisson", "rate_per_s": 1}, {"entries": _MIX_ENTRIES}),
    "mix_paper_palette": _dynamic({"kind": "poisson", "rate_per_s": 1}),
    "mix_tagged_weighted": _dynamic(
        {"kind": "poisson", "rate_per_s": 1},
        {"kind": "weighted", "paper": ["SP"], "work_scale": 0.1},
    ),
    "mix_zipfian": _dynamic(
        {"kind": "poisson", "rate_per_s": 1},
        {"kind": "zipfian", "entries": _MIX_ENTRIES, "exponent": 2},
    ),
    "mix_family_defaults": _dynamic(
        {"kind": "poisson", "rate_per_s": 1}, {"kind": "zipfian", "paper": ["CG", "SP"]},
    ),
    "dynamic_all_fields": _dynamic(
        {"kind": "poisson", "rate_per_s": 3},
        n_jobs=12, max_in_service=2, queue_capacity=5, poll_period_us=25_000,
        watchdog_factor=6, watchdog_strict=True, warmup_frac=0.2,
        slowdown_tau_us=5_000, saturation_threshold=0.8, record_jobs=False,
    ),
    "dynamic_beside_targets": {
        **_dynamic({"kind": "poisson", "rate_per_s": 1}, queue_capacity=None),
        "targets": [_CG],
    },
    # explicit config sections (floats typed as floats)
    "config_sections": {
        "targets": [_CG],
        "background": [_BBMA],
        "scheduler": {"policy": "quanta_window"},
        "machine": {
            "n_cpus": 8, "smt_ways": 2, "smt_efficiency": 0.7,
            "bus": {
                "capacity_txus": 31.5, "lam0_us": 0.05, "contention_coeff": 0.1,
                "mem_exponent": 0.8, "unfairness": 0.5, "arbitration": "max-min",
                "fixed_point_tol": 1e-9, "solver_mode": "newton", "solve_cache_size": 0,
            },
            "cache": {
                "size_bytes": 524_288, "line_bytes": 64,
                "rebuild_fill_rate_txus": 15.0, "rebuild_progress_factor": 0.5,
            },
        },
        "manager": {
            "quantum_us": 100_000.0, "samples_per_quantum": 4, "window_length": 3,
            "fitness_scale": 500.0, "signal_first_hop_us": 20.0,
            "signal_forward_us": 10.0, "signal_cost_lines": 32.0,
            "saturation_aware": False, "saturation_threshold": 0.85,
            "signal_protocol": "sequence", "resend_intent": True, "hardening": False,
            "signal_ack_deadline_us": 5_000.0, "signal_max_retries": 2,
            "staleness_quanta": 3, "watchdog_quanta": 4,
        },
        "linux": {
            "tick_us": 5_000.0, "default_ticks": 4, "affinity_bonus": 10,
            "rebalance_prob": 0.01,
        },
        "faults": {
            "pmc_jitter": 0.1, "pmc_drop_prob": 0.05, "pmc_wrap_prob": 0.01,
            "pmc_stale_prob": 0.02, "signal_drop_prob": 0.03,
            "signal_duplicate_prob": 0.01, "signal_delay_us": 100.0,
            "crash_prob": 0.1, "crash_mean_time_us": 500_000.0, "hang_prob": 0.05,
            "hang_mean_time_us": 400_000.0, "stall_prob": 0.2,
            "stall_duration_us": 5_000.0, "stall_check_period_us": 100_000.0,
            "targets_immune": False,
        },
    },
    "config_partial_sections": {
        "targets": [_CG],
        "machine": {"bus": {"solver_mode": "vector"}},
        "manager": {"quantum_us": 400_000.0},
        "faults": {},
    },
    # spec-level fields
    "spec_level_fields": {
        "targets": [_CG],
        "background": [_BBMA],
        "arrivals": [[1_000, {"app": "SP", "work_scale": 0.02}], [2_500.5, _BBMA]],
        "seed": 123,
        "max_time_us": 200_000,
        "trace": False,
        "timeline_period_us": 10_000,
        "profile": True,
        "audit": True,
    },
}

_RESULT_BASE = {
    "targets": [{"app": "CG", "work_scale": 0.3}, {"app": "SP", "work_scale": 0.3}],
    "background": [_BBMA, _BBMA],
    "max_time_us": 20_000_000.0,
}

RESULT_CASES: dict[str, dict] = {
    "static": {**_RESULT_BASE, "scheduler": "linux", "seed": 5},
    "dynamic_records_on": _dynamic({"kind": "poisson", "rate_per_s": 2.0}, n_jobs=3),
    "dynamic_records_off": _dynamic(
        {"kind": "poisson", "rate_per_s": 2.0}, n_jobs=3, record_jobs=False
    ),
    "faulted": {
        **_RESULT_BASE,
        "scheduler": {"policy": "quanta_window"},
        "faults": {"pmc_jitter": 0.2, "pmc_drop_prob": 0.2, "signal_drop_prob": 0.2,
                   "stall_prob": 0.5, "crash_prob": 1.0, "crash_mean_time_us": 300_000.0},
        "seed": 9,
    },
    "audited": {**_RESULT_BASE, "scheduler": {"policy": "latest_quantum"}, "audit": True,
                "profile": True},
}


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


def _spec_ids():
    return list(SPEC_CASES)


@pytest.fixture(scope="module")
def golden() -> dict:
    return _load()


def test_fixture_file_covers_every_case(golden):
    assert list(golden["specs"]) == list(SPEC_CASES)
    assert list(golden["results"]) == list(RESULT_CASES)
    for name, case in golden["specs"].items():
        assert case["payload"] == SPEC_CASES[name], name


@pytest.mark.parametrize("name", _spec_ids())
def test_submitted_payload_encodes_to_golden_canonical_form(golden, name):
    case = golden["specs"][name]
    spec = parse_submit_request({"spec": case["payload"]}).spec
    assert canonical_json(spec_to_dict(spec)) == canonical_json(case["canonical"])
    assert spec.spec_hash() == case["spec_hash"]


@pytest.mark.parametrize("name", _spec_ids())
def test_canonical_form_is_a_fixed_point(golden, name):
    case = golden["specs"][name]
    spec = spec_from_dict(case["canonical"])
    assert canonical_json(spec_to_dict(spec)) == canonical_json(case["canonical"])
    assert spec.spec_hash() == case["spec_hash"]


@pytest.mark.parametrize("name", list(RESULT_CASES))
def test_result_payload_round_trips_byte_identically(golden, name):
    payload = golden["results"][name]
    decoded = result_from_dict(payload)
    assert canonical_json(result_to_dict(decoded)) == canonical_json(payload)
    assert canonical_json(audit_to_dict(audit_from_dict(payload["audit"]))) == (
        canonical_json(payload["audit"])
    )


def _write() -> None:  # pragma: no cover - fixture regeneration
    from repro.experiments.base import run_simulation

    specs = {}
    for name, payload in SPEC_CASES.items():
        spec = spec_from_dict(payload)
        specs[name] = {
            "payload": payload,
            "canonical": spec_to_dict(spec),
            "spec_hash": spec.spec_hash(),
        }
    results = {
        name: result_to_dict(run_simulation(spec_from_dict(payload)))
        for name, payload in RESULT_CASES.items()
    }
    GOLDEN.write_text(
        json.dumps({"specs": specs, "results": results}, indent=1, sort_keys=False) + "\n"
    )


if __name__ == "__main__":  # pragma: no cover
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write()
