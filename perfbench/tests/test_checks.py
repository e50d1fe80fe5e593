import json
import os

import pytest

import worker

HERE = os.path.dirname(os.path.abspath(__file__))


class _Fig2Result:
    def __init__(self, turnaround):
        self.turnaround = turnaround

    def mean_target_turnaround_us(self):
        return self.turnaround


def _reference(workload):
    with open(os.path.join(os.path.dirname(HERE), "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _fig2_batch():
    batch = worker.Batch("fig2_grid", seed=1, seconds=1.0)
    batch.expect = _reference("fig2_grid")
    return batch


def test_fig2_check_accepts_the_pinned_turnaround():
    batch = _fig2_batch()
    key = ("A", "Barnes", "linux")
    assert batch.check(key, _Fig2Result(batch.expect["A/Barnes/linux"])) is None


@pytest.mark.parametrize("rel", [2e-6, -2e-6, 1e-3])
def test_fig2_check_trips_on_a_perturbed_turnaround(rel):
    batch = _fig2_batch()
    key = ("C", "CG", "quanta-window")
    want = batch.expect["C/CG/quanta-window"]
    problem = batch.check(key, _Fig2Result(want * (1 + rel)))
    assert problem is not None and "turnaround" in problem


def test_pinned_fig2_table_tracks_the_committed_csv():
    # Only the cell whose near-tie decision flipped (make_reference.py)
    # strays beyond 1e-6 from results/csv, and by no more than 1e-4.
    pinned, table = _reference("fig2_grid"), worker.fig2_csv()
    assert sorted(pinned) == sorted("/".join(k) for k in table)
    off = {"/".join(k): pinned["/".join(k)] / v - 1.0 for k, v in table.items()
           if abs(pinned["/".join(k)] / v - 1.0) > worker.REL_TOL}
    assert list(off) == ["A/LU CB/latest-quantum"]
    assert abs(off["A/LU CB/latest-quantum"]) < 1e-4
    assert "98/99 cells" in worker.fig2_csv_drift(pinned)


def test_reference_check_trips_on_a_perturbed_makespan():
    want = _reference("large_smp")["42"]
    got = dict(want)
    assert worker.check_reference("large_smp", want, _Record(got)) is None
    got["makespan_us"] *= 1 + 2e-6
    assert "makespan_us" in worker.check_reference("large_smp", want, _Record(got))


class _Record:
    """Stands in for a RunResult through reference_record."""

    def __init__(self, values):
        self.makespan_us = values["makespan_us"]
        self.total_transactions = values["total_transactions"]
        self.context_switches = values["context_switches"]
        self._turnaround = values["mean_target_turnaround_us"]

    def mean_target_turnaround_us(self):
        return self._turnaround


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(worker.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == worker.PER_LAYER
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == worker.END_TO_END


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    mapped = [m for layer in layers for m in layer["metrics"]]
    per_layer = [name for name, _ in worker.PER_LAYER]
    assert sorted(mapped) == sorted(per_layer)
    e2e = {name for name, _ in worker.END_TO_END}
    workloads = {"fig2_grid", "large_smp", "open_churn", "service_mix"}
    for layer in layers:
        for move in layer["moves"]:
            assert move["metric"] in e2e
            assert set(move["workloads"]) <= workloads


class _StubResult:
    makespan_us = 1000.0


def test_timed_window_times_only_whole_passes():
    batch = worker.Batch("large_smp", seed=3, seconds=0.0)
    batch.pool = [1, 2, 3, 4]
    batch.keys = iter([1, 2, 3, 4] * 5)
    batch.build = lambda key: key
    batch.base = type("Base", (), {"run_simulation": staticmethod(lambda spec: _StubResult())})
    batch.check = lambda key, result: None
    w = batch.timed_window()
    # A zero-second window still runs enough whole passes for a tail.
    assert len(w["keys"]) == 12 and w["timed"]["passes"] == 3
    assert len(w["timed"]["times"]) == 12 and w["timed"]["sim_us"] == 12000.0
