"""Validation tests for the dynamic-workload configuration objects."""

import pytest

from repro.dynamic import (
    DynamicWorkload,
    JobMix,
    PoissonArrivals,
    ZipfianMix,
    paper_mix,
)
from repro.errors import ConfigError
from repro.rng import RngRegistry
from repro.workloads.suites import paper_app


def _workload(**overrides):
    defaults = dict(
        arrivals=PoissonArrivals(rate_per_s=1.0),
        mix=paper_mix(work_scale=0.1),
    )
    defaults.update(overrides)
    return DynamicWorkload(**defaults)


class TestJobMix:
    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            JobMix(entries=())

    def test_rejects_bad_weight(self):
        with pytest.raises(ConfigError):
            JobMix(entries=((paper_app("CG"), 0.0),))

    def test_rejects_non_spec(self):
        with pytest.raises(ConfigError):
            JobMix(entries=(("CG", 1.0),))

    def test_sampling_is_weight_proportional(self):
        mix = JobMix(entries=((paper_app("CG"), 3.0), (paper_app("SP"), 1.0)))
        rng = RngRegistry(3).stream("dynamic.mix")
        names = [mix.sample(rng).name for _ in range(4000)]
        assert names.count("CG") / len(names) == pytest.approx(0.75, abs=0.05)

    def test_sampling_deterministic(self):
        mix = paper_mix()
        a = [mix.sample(RngRegistry(5).stream("dynamic.mix")) for _ in range(1)]
        b = [mix.sample(RngRegistry(5).stream("dynamic.mix")) for _ in range(1)]
        assert [s.name for s in a] == [s.name for s in b]

    def test_paper_mix_rejects_empty(self):
        with pytest.raises(ConfigError):
            paper_mix(names=[])


class TestDynamicWorkloadValidation:
    def test_defaults_valid(self):
        wl = _workload()
        assert wl.n_jobs == 30
        assert wl.queue_capacity is None

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_jobs=0),
            dict(max_in_service=0),
            dict(queue_capacity=-1),
            dict(poll_period_us=0.0),
            dict(watchdog_factor=0.0),
            dict(warmup_frac=1.0),
            dict(warmup_frac=-0.1),
            dict(slowdown_tau_us=-1.0),
            dict(saturation_threshold=0.0),
            dict(saturation_threshold=1.5),
        ],
        ids=lambda o: next(iter(o.items()))[0] + "=" + str(next(iter(o.items()))[1]),
    )
    def test_bad_knobs_raise_config_error(self, overrides):
        with pytest.raises(ConfigError):
            _workload(**overrides)

    def test_rejects_wrong_types(self):
        with pytest.raises(ConfigError):
            DynamicWorkload(arrivals="poisson", mix=paper_mix())
        with pytest.raises(ConfigError):
            DynamicWorkload(arrivals=PoissonArrivals(rate_per_s=1.0), mix="mix")

    def test_warmup_jobs(self):
        assert _workload(n_jobs=30, warmup_frac=0.1).warmup_jobs() == 3
        assert _workload(n_jobs=5, warmup_frac=0.0).warmup_jobs() == 0

    def test_starvation_bound_scales_with_load(self):
        wl = _workload(watchdog_factor=4.0)
        assert wl.starvation_bound_us(200_000.0, 3) == pytest.approx(2_400_000.0)
        # At least one rotation slot even with nothing co-resident.
        assert wl.starvation_bound_us(200_000.0, 0) == pytest.approx(800_000.0)


class TestMixFamilies:
    def _entries(self, *names_weights):
        return tuple((paper_app(n), w) for n, w in names_weights)

    def test_zipfian_skews_toward_head(self):
        entries = self._entries(("CG", 1.0), ("SP", 1.0), ("MG", 1.0))
        mix = ZipfianMix(entries=entries, exponent=2.0)
        rng = RngRegistry(3).stream("dynamic.mix")
        names = [mix.sample(rng).name for _ in range(6000)]
        # Weights 1, 1/4, 1/9 -> head share 36/49.
        assert names.count("CG") / len(names) == pytest.approx(36 / 49, abs=0.03)
        assert names.count("CG") > names.count("SP") > names.count("MG")

    def test_zipfian_zero_exponent_is_uniform(self):
        entries = self._entries(("CG", 1.0), ("SP", 1.0))
        mix = ZipfianMix(entries=entries, exponent=0.0)
        rng = RngRegistry(4).stream("dynamic.mix")
        names = [mix.sample(rng).name for _ in range(4000)]
        assert names.count("CG") / len(names) == pytest.approx(0.5, abs=0.05)

    def test_zipfian_validation(self):
        entries = self._entries(("CG", 1.0))
        with pytest.raises(ConfigError):
            ZipfianMix(entries=entries, exponent=-1.0)
        with pytest.raises(ConfigError):
            ZipfianMix(entries=entries, exponent=float("inf"))

    def test_sample_many_base_matches_sample_loop(self):
        mix = JobMix(entries=self._entries(("CG", 3.0), ("SP", 1.0)))
        many = mix.sample_many(RngRegistry(11).stream("dynamic.mix"), 25)
        rng = RngRegistry(11).stream("dynamic.mix")
        loop = [mix.sample(rng) for _ in range(25)]
        assert [s.name for s in many] == [s.name for s in loop]

    def test_families_keep_mean_service_weighting(self):
        entries = self._entries(("CG", 1.0), ("SP", 1.0))
        plain = JobMix(entries=entries)
        zipf = ZipfianMix(entries=entries, exponent=1.0)

        def mean_service_us(mix: JobMix) -> float:
            weighted = mix._effective_entries()
            return sum(s.work_per_thread_us * w for s, w in weighted) / mix.total_weight

        # Zipfian reweights (1, 1/2): the effective mean shifts toward CG.
        cg = paper_app("CG").work_per_thread_us
        sp = paper_app("SP").work_per_thread_us
        assert mean_service_us(plain) == pytest.approx((cg + sp) / 2)
        assert mean_service_us(zipf) == pytest.approx((2 * cg + sp) / 3)
