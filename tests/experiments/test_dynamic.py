"""DYN-1 harness tests: sweep structure, determinism, CLI, export."""

import pytest

from repro.dynamic import DynamicWorkload, TraceArrivals, paper_mix
from repro.errors import ConfigError, SimulationError
from repro.experiments.base import SimulationSpec, run_simulation, run_simulation_with_handle
from repro.experiments.dynamic import (
    DYNAMIC_POLICIES,
    format_dynamic,
    make_arrivals,
    run_dynamic_sweep,
)
from repro.units import seconds
from repro.workloads.suites import PAPER_APPS

SWEEP_KW = dict(rates_per_s=[3.0], n_jobs=6, replications=2, seed=7, work_scale=0.05)


@pytest.fixture(scope="module")
def sweep_rows():
    return run_dynamic_sweep(**SWEEP_KW)


class TestSweep:
    def test_grid_shape(self, sweep_rows):
        assert len(sweep_rows) == len(DYNAMIC_POLICIES)
        assert {r.policy for r in sweep_rows} == set(DYNAMIC_POLICIES)
        assert all(len(r.summaries) == 2 for r in sweep_rows)

    def test_all_points_complete_without_starvation(self, sweep_rows):
        for row in sweep_rows:
            assert row.starvation_ok
            for s in row.summaries:
                assert s.n_completed == 6
                assert s.n_dropped == 0

    def test_metrics_sane(self, sweep_rows):
        for row in sweep_rows:
            assert row.mean_response_us > 0
            assert row.mean_slowdown >= 1.0
            assert row.throughput_jobs_per_s > 0
            assert 0.0 <= row.saturated_fraction <= 1.0

    def test_serial_parallel_identical(self, sweep_rows):
        """The whole sweep — including DynamicStats — is worker-invariant."""
        parallel = run_dynamic_sweep(jobs=2, **SWEEP_KW)
        assert parallel == sweep_rows

    def test_format(self, sweep_rows):
        text = format_dynamic(sweep_rows)
        assert "DYN-1" in text
        assert "latest_quantum" in text
        assert "ok" in text
        with pytest.raises(ConfigError):
            format_dynamic([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            run_dynamic_sweep(policies=["fifo"], **SWEEP_KW)

    def test_zero_replications_rejected(self):
        kw = dict(SWEEP_KW)
        kw["replications"] = 0
        with pytest.raises(ConfigError):
            run_dynamic_sweep(**kw)


class TestRunDeterminism:
    def test_acceptance_run_bit_identical(self):
        """`repro dynamic --policy latest_quantum --arrival poisson --seed 7`
        must reproduce bit-identically run to run."""
        kw = dict(
            policies=["latest_quantum"],
            rates_per_s=[2.0],
            n_jobs=6,
            replications=1,
            seed=7,
            work_scale=0.05,
        )
        assert run_dynamic_sweep(**kw) == run_dynamic_sweep(**kw)

    def test_seed_changes_results(self):
        kw = dict(SWEEP_KW, policies=["linux"])
        a = run_dynamic_sweep(**kw)
        b = run_dynamic_sweep(**{**kw, "seed": 8})
        assert a != b


class TestTimeLimit:
    """A dynamic run's safety limit counts from its schedule's span."""

    LATE = TraceArrivals(times_us=(0.0, seconds(3700)))

    def test_schedule_longer_than_an_hour_completes(self):
        # 100k jobs at 0.5/s arrive over ~55 h; any fixed limit cuts some
        # schedule short. This one has a job arriving after an hour.
        rows = run_dynamic_sweep(
            policies=["latest_quantum"], arrivals=self.LATE, n_jobs=2,
            replications=1, seed=7, work_scale=0.01,
        )
        assert rows[0].summaries[0].n_completed == 2

    def test_span_is_last_arrival_plus_standalone_work(self):
        workload = DynamicWorkload(
            arrivals=self.LATE, mix=paper_mix(["CG"], work_scale=0.01), n_jobs=2
        )
        _, handle = run_simulation_with_handle(
            SimulationSpec(targets=[], dynamic=workload, seed=7)
        )
        cg = PAPER_APPS["CG"].scaled(0.01)
        want = seconds(3700) + 2 * cg.work_per_thread_us * cg.n_threads
        assert handle.dynamic.schedule_span_us == pytest.approx(want)

    def test_run_that_cannot_finish_still_aborts(self):
        # The static target needs days of work; the limit is one second
        # past the dynamic schedule, so the run must stop with an error.
        endless = PAPER_APPS["CG"].scaled(1e5)
        workload = DynamicWorkload(
            arrivals=TraceArrivals(times_us=(0.0, 1000.0)),
            mix=paper_mix(["CG"], work_scale=0.01),
            n_jobs=2,
        )
        spec = SimulationSpec(
            targets=[endless], dynamic=workload, seed=7, max_time_us=seconds(1)
        )
        with pytest.raises(SimulationError, match="max_time"):
            run_simulation(spec)


class TestArrivalFactory:
    def test_poisson(self):
        assert make_arrivals("poisson", 2.0).mean_rate_per_s == 2.0

    def test_mmpp_mean_rate_exact(self):
        proc = make_arrivals("mmpp", 2.0)
        assert proc.mean_rate_per_s == pytest.approx(2.0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_arrivals("uniform", 1.0)
        with pytest.raises(ConfigError):
            make_arrivals("poisson", -1.0)

    def test_trace_sweep(self):
        trace = TraceArrivals(times_us=tuple(float(t) for t in range(10_000, 60_000, 10_000)))
        rows = run_dynamic_sweep(
            policies=["linux"],
            arrivals=trace,
            n_jobs=5,
            replications=1,
            seed=7,
            work_scale=0.05,
        )
        assert len(rows) == 1
        assert rows[0].rate_per_s == pytest.approx(trace.mean_rate_per_s)
        assert rows[0].summaries[0].n_completed == 5


class TestCli:
    def test_dynamic_subcommand(self, capsys):
        from repro.cli import main

        code = main(
            [
                "dynamic",
                "--policy", "latest_quantum",
                "--arrival", "poisson",
                "--rate", "3.0",
                "--seed", "7",
                "--scale", "0.05",
                "--num-jobs", "5",
                "--replications", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "DYN-1" in out
        assert "latest_quantum" in out

    def test_trace_file_flag(self, tmp_path, capsys):
        from repro.cli import main

        trace = TraceArrivals(times_us=(10_000.0, 30_000.0, 80_000.0))
        path = trace.to_json(str(tmp_path / "trace.json"))
        code = main(
            [
                "dynamic",
                "--policy", "linux",
                "--arrival", "trace",
                "--trace-file", path,
                "--seed", "7",
                "--scale", "0.05",
                "--replications", "1",
            ]
        )
        assert code == 0
        assert "DYN-1" in capsys.readouterr().out

    def test_rate_and_rates_exclusive(self):
        from repro.cli import main

        with pytest.raises(ConfigError):
            main(["dynamic", "--rate", "1.0", "--rates", "1.0,2.0"])


class TestExport:
    def test_export_dynamic_csv(self, tmp_path, sweep_rows):
        from repro.experiments.export import export_dynamic

        path = export_dynamic(sweep_rows, str(tmp_path))
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0].startswith("policy,rate_per_s,mean_response_us")
        assert len(lines) == 1 + len(sweep_rows)
        assert lines[1].split(",")[-1] == "1"  # starvation_ok


class TestShapeAndMixFactories:
    def test_make_shape_diurnal(self):
        from repro.dynamic import DiurnalShape
        from repro.experiments.dynamic import make_shape

        shape = make_shape("diurnal", period_s=30.0, amplitude=0.4)
        assert isinstance(shape, DiurnalShape)
        assert shape.period_s == 30.0

    def test_make_shape_flash(self):
        from repro.dynamic import FlashCrowdShape
        from repro.experiments.dynamic import make_shape

        shape = make_shape("flash", at_s=5.0, duration_s=2.0, magnitude=3.0)
        assert isinstance(shape, FlashCrowdShape)

    def test_make_shape_rejects_unknown(self):
        from repro.experiments.dynamic import make_shape

        with pytest.raises(ConfigError):
            make_shape("tidal")
        with pytest.raises(ConfigError):
            make_shape("diurnal", wavelength=3.0)

    def test_make_mix_families(self):
        from repro.dynamic import BurstyMix, HotspotMix, SequentialMix, ZipfianMix
        from repro.experiments.dynamic import make_mix

        assert isinstance(make_mix("zipfian", exponent=1.2), ZipfianMix)
        assert isinstance(make_mix("hotspot", hot_fraction=0.7), HotspotMix)
        assert isinstance(make_mix("sequential", run_length=3), SequentialMix)
        assert isinstance(make_mix("bursty", mean_run_length=5.0), BurstyMix)

    def test_make_mix_weighted_rejects_params(self):
        from repro.experiments.dynamic import make_mix

        with pytest.raises(ConfigError):
            make_mix("weighted", exponent=1.0)
        with pytest.raises(ConfigError):
            make_mix("nope")


class TestStreamingSweep:
    def test_no_records_sweep_has_quantiles(self):
        rows = run_dynamic_sweep(record_jobs=False, **SWEEP_KW)
        for row in rows:
            assert row.response_p50_us is not None
            assert row.response_p50_us <= row.response_p95_us <= row.response_p99_us

    def test_no_records_matches_records_on_means(self, sweep_rows):
        rows = run_dynamic_sweep(record_jobs=False, **SWEEP_KW)
        by_policy = {r.policy: r for r in rows}
        for ref in sweep_rows:
            row = by_policy[ref.policy]
            assert row.mean_response_us == ref.mean_response_us
            assert row.mean_slowdown == ref.mean_slowdown
            assert row.throughput_jobs_per_s == ref.throughput_jobs_per_s

    def test_no_records_serial_parallel_identical(self):
        serial = run_dynamic_sweep(record_jobs=False, **SWEEP_KW)
        parallel = run_dynamic_sweep(record_jobs=False, jobs=2, **SWEEP_KW)
        assert parallel == serial

    def test_shaped_sweep_runs(self):
        from repro.experiments.dynamic import make_shape

        rows = run_dynamic_sweep(
            shapes=[make_shape("diurnal", period_s=10.0, amplitude=0.5)],
            policies=["linux"],
            **SWEEP_KW,
        )
        assert rows[0].summaries[0].n_completed == 6

    def test_mix_sweep_runs(self):
        from repro.experiments.dynamic import make_mix

        rows = run_dynamic_sweep(
            mix=make_mix("zipfian", work_scale=0.05, exponent=1.5),
            policies=["linux"],
            **SWEEP_KW,
        )
        assert rows[0].summaries[0].n_completed == 6

    def test_format_quantiles_flag(self, sweep_rows):
        plain = format_dynamic(sweep_rows)
        with_q = format_dynamic(sweep_rows, quantiles=True)
        assert "p95" not in plain
        assert "p50" in with_q and "p95" in with_q and "p99" in with_q


class TestCliStreaming:
    BASE = [
        "dynamic",
        "--policy", "linux",
        "--rate", "3.0",
        "--seed", "7",
        "--scale", "0.05",
        "--num-jobs", "5",
        "--replications", "1",
    ]

    def test_quantiles_flag(self, capsys):
        from repro.cli import main

        assert main(self.BASE + ["--quantiles"]) == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p99" in out

    def test_no_records_flag(self, capsys):
        from repro.cli import main

        assert main(self.BASE + ["--no-records", "--quantiles"]) == 0
        assert "DYN-1" in capsys.readouterr().out

    def test_shape_and_mix_flags(self, capsys):
        from repro.cli import main

        code = main(
            self.BASE
            + [
                "--shape", "diurnal:period_s=10,amplitude=0.5",
                "--shape", "flash:at_s=1,duration_s=1,magnitude=2",
                "--mix", "zipfian:exponent=1.2",
            ]
        )
        assert code == 0
        assert "DYN-1" in capsys.readouterr().out

    def test_bad_shape_spec_rejected(self):
        from repro.cli import main

        with pytest.raises(ConfigError):
            main(self.BASE + ["--shape", "diurnal:period_s"])
        with pytest.raises(ConfigError):
            main(self.BASE + ["--shape", ":period_s=1"])


class TestExportQuantiles:
    def test_quantile_columns_present(self, tmp_path, sweep_rows):
        from repro.experiments.export import export_dynamic

        path = export_dynamic(sweep_rows, str(tmp_path))
        with open(path) as fh:
            header, first = fh.read().strip().splitlines()[:2]
        cols = header.split(",")
        i = cols.index("response_p50_us")
        assert cols[i : i + 3] == [
            "response_p50_us",
            "response_p95_us",
            "response_p99_us",
        ]
        assert cols[-1] == "starvation_ok"
        # Records-on sweeps populate exact quantiles.
        assert first.split(",")[i] != ""
