"""Golden results for small 4-CPU runs: whole-run bit identity over time.

The scalar-vs-SoA parity suites compare two machine paths with each
other, so a change that moves both in lockstep (the engine's event
ordering, a shared accounting step) passes them. ``golden_small_runs.json``
pins ``result_to_dict`` (minus the wall-clock ``profile``) of a few small
runs on the scalar lane loops, written by the code that preceded the
scalar-loop and event-heap rewrites:

* one Figure 2 cell per workload set and scheduler, at work scale 0.05;
* one open-system run shaped like the ``open_churn`` workload, 20 jobs;
* one EXT-SMT run (4 cores, 2-way SMT, Quanta Window);
* one EXT-IO run (the ``db`` server under Linux).

Every float must match bit for bit. Never regenerate the file to make a
failing case pass: a mismatch means a simulated result changed.

Regenerate (only when results change on purpose)::

    PYTHONPATH=src python tests/experiments/test_golden_small_runs.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.config import ManagerConfig, MachineConfig
from repro.dynamic.arrivals import PoissonArrivals
from repro.dynamic.config import DynamicWorkload, paper_mix
from repro.experiments.base import SimulationSpec, run_simulation
from repro.experiments.fig2 import _background, default_policies
from repro.experiments.io import io_app_specs
from repro.service.schemas import result_to_dict
from repro.workloads.microbench import bbma_spec, nbbma_spec
from repro.workloads.suites import PAPER_APPS

GOLDEN = Path(__file__).with_name("golden_small_runs.json")

_SCALE = 0.05
#: One application per Figure 2 workload set.
_FIG2_APPS = {"A": "CG", "B": "LU CB", "C": "Barnes"}


def _policy(name: str):
    for policy in default_policies(ManagerConfig()):
        if policy.name == name:
            return policy
    raise KeyError(name)


def _cases() -> dict[str, SimulationSpec]:
    cases: dict[str, SimulationSpec] = {}
    for set_name, app in _FIG2_APPS.items():
        app_spec = PAPER_APPS[app].scaled(_SCALE)
        for sched in ("linux", "latest-quantum", "quanta-window"):
            cases[f"fig2/{set_name}/{app}/{sched}"] = SimulationSpec(
                targets=[app_spec, app_spec],
                background=_background(set_name),
                scheduler="linux" if sched == "linux" else _policy(sched),
                seed=42,
            )
    cases["open_churn/20jobs"] = SimulationSpec(
        targets=[],
        background=[bbma_spec(), bbma_spec()],
        scheduler=_policy("quanta-window"),
        dynamic=DynamicWorkload(
            arrivals=PoissonArrivals(rate_per_s=5.0),
            mix=paper_mix(work_scale=_SCALE),
            n_jobs=20,
            max_in_service=4,
            record_jobs=True,
        ),
        seed=1,
    )
    barnes = PAPER_APPS["Barnes"].scaled(_SCALE)
    cases["smt/Barnes/HT-on/quanta-window"] = SimulationSpec(
        targets=[barnes, barnes],
        background=_background("A"),
        scheduler=_policy("quanta-window"),
        machine=MachineConfig(n_cpus=4, smt_ways=2, smt_efficiency=0.62),
        seed=42,
    )
    db = io_app_specs(_SCALE)["db"]
    cases["io/db/linux"] = SimulationSpec(
        targets=[db, db],
        background=[bbma_spec(), bbma_spec(), nbbma_spec(), nbbma_spec()],
        scheduler="linux",
        seed=42,
    )
    return cases


def _result(spec: SimulationSpec) -> dict:
    out = result_to_dict(run_simulation(spec))
    out.pop("profile", None)
    # Through JSON, as the fixture was: floats round-trip exactly.
    return json.loads(json.dumps(out, sort_keys=True))


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_fixture_covers_every_case():
    assert sorted(_golden()) == sorted(_cases())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_run_matches_golden(name):
    fresh = _result(_cases()[name])
    golden = _golden()[name]
    for key in sorted(set(golden) | set(fresh)):
        assert fresh.get(key) == golden.get(key), f"{name}: {key} differs"
    assert json.dumps(fresh, sort_keys=True) == json.dumps(golden, sort_keys=True)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    payload = {name: _result(spec) for name, spec in _cases().items()}
    GOLDEN.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(payload)} cases to {GOLDEN}")
