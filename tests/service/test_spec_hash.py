"""SimulationSpec.spec_hash(): stable, canonical, change-sensitive.

The hash is the service's cache key, so it carries three contracts:

* **round-trip**: serializing a spec to its canonical dict and parsing
  it back yields the same hash (the wire format loses nothing the hash
  sees);
* **cross-process stability**: the same spec hashes identically in a
  fresh interpreter — no dependence on PYTHONHASHSEED, dict order, or
  interning (sha256 over canonical JSON guarantees this; the test pins
  it);
* **sensitivity**: changing any simulation-relevant field changes the
  hash, while the excluded observability toggles (``profile``,
  ``audit`` — both documented bit-identical) do not.
"""

import subprocess
import sys
from dataclasses import replace

import pytest

from repro.dynamic.arrivals import PoissonArrivals
from repro.dynamic.config import DynamicWorkload, paper_mix
from repro.experiments.base import SimulationSpec
from repro.core.policies import LatestQuantumPolicy, QuantaWindowPolicy
from repro.service.schemas import spec_from_dict, spec_to_dict
from repro.workloads.suites import paper_app


def _spec(**overrides) -> SimulationSpec:
    base = dict(
        targets=[paper_app("CG").scaled(0.05)],
        background=[paper_app("Barnes").scaled(0.05)],
        scheduler=LatestQuantumPolicy(),
        seed=7,
        max_time_us=500_000.0,
    )
    base.update(overrides)
    return SimulationSpec(**base)


class TestRoundTrip:
    def test_dict_round_trip_preserves_hash(self):
        spec = _spec()
        again = spec_from_dict(spec_to_dict(spec))
        assert again.spec_hash() == spec.spec_hash()

    def test_round_trip_twice_is_fixed_point(self):
        spec = _spec()
        once = spec_to_dict(spec)
        twice = spec_to_dict(spec_from_dict(once))
        assert once == twice

    def test_dynamic_spec_round_trips(self):
        dyn = DynamicWorkload(
            mix=paper_mix(work_scale=0.05),
            arrivals=PoissonArrivals(rate_per_s=1.0),
            n_jobs=4,
        )
        spec = SimulationSpec(
            targets=[], scheduler=QuantaWindowPolicy(), dynamic=dyn, seed=3
        )
        again = spec_from_dict(spec_to_dict(spec))
        assert again.spec_hash() == spec.spec_hash()

    def test_dict_hash_helper_matches_spec_hash(self):
        from repro.service.schemas import spec_dict_hash

        observed = _spec(profile=True, audit=True)
        assert spec_dict_hash(spec_to_dict(observed)) == observed.spec_hash()
        assert observed.spec_hash() == _spec().spec_hash()

    def test_hash_is_hex_sha256(self):
        digest = _spec().spec_hash()
        assert len(digest) == 64
        int(digest, 16)  # must be valid hex


class TestCrossProcess:
    def test_same_hash_in_fresh_interpreter(self):
        spec = _spec()
        # Rebuild the identical spec in a subprocess (different
        # PYTHONHASHSEED, cold caches) and compare digests.
        code = (
            "from repro.experiments.base import SimulationSpec\n"
            "from repro.core.policies import LatestQuantumPolicy\n"
            "from repro.workloads.suites import paper_app\n"
            "spec = SimulationSpec(\n"
            "    targets=[paper_app('CG').scaled(0.05)],\n"
            "    background=[paper_app('Barnes').scaled(0.05)],\n"
            "    scheduler=LatestQuantumPolicy(),\n"
            "    seed=7,\n"
            "    max_time_us=500_000.0,\n"
            ")\n"
            "print(spec.spec_hash())\n"
        )
        import os

        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED="12345")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=env,
        )
        assert out.stdout.strip() == spec.spec_hash()


class TestSensitivity:
    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 8},
            {"max_time_us": 600_000.0},
            {"trace": False},
            {"kernel": "linux26"},
            {"scheduler": "linux"},
            {"scheduler": QuantaWindowPolicy(window_length=7)},
            {"dedicated_migration_interval_us": 123_456.0},
            {"timeline_period_us": 10_000.0},
        ],
    )
    def test_any_field_change_changes_hash(self, change):
        assert _spec(**change).spec_hash() != _spec().spec_hash()

    def test_target_change_changes_hash(self):
        other = _spec(targets=[paper_app("SP").scaled(0.05)])
        assert other.spec_hash() != _spec().spec_hash()

    def test_work_scale_changes_hash(self):
        other = _spec(targets=[paper_app("CG").scaled(0.06)])
        assert other.spec_hash() != _spec().spec_hash()

    def test_policy_parameter_changes_hash(self):
        a = _spec(scheduler=QuantaWindowPolicy(window_length=3))
        b = _spec(scheduler=QuantaWindowPolicy(window_length=4))
        assert a.spec_hash() != b.spec_hash()

    def test_profile_and_audit_do_not_change_hash(self):
        # Both toggles are documented bit-identical observability: runs
        # with and without them produce equal RunResults, so caching
        # across them is sound and intended.
        spec = _spec()
        assert replace(spec, profile=True).spec_hash() == spec.spec_hash()
        assert replace(spec, audit=True).spec_hash() == spec.spec_hash()

    def test_equal_specs_equal_hashes(self):
        assert _spec().spec_hash() == _spec().spec_hash()
