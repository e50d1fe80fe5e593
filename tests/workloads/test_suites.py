"""The paper application catalogue: structural and calibration checks."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.suites import PAPER_APPS, PAPER_SOLO_RATES, paper_app, paper_app_names


class TestCatalogue:
    def test_eleven_applications(self):
        assert len(PAPER_APPS) == 11

    def test_figure_order_is_increasing_rate(self):
        rates = [PAPER_SOLO_RATES[name] for name in paper_app_names()]
        assert rates == sorted(rates)

    def test_extremes_match_paper_text(self):
        # "The bandwidth consumption varies from 0.48 to 23.31 bus
        # transactions per microsecond."
        assert PAPER_SOLO_RATES["Radiosity"] == 0.48
        assert PAPER_SOLO_RATES["CG"] == 23.31

    def test_pattern_means_match_catalogue_rates(self):
        for name, spec in PAPER_APPS.items():
            solo_rate = spec.pattern.mean_rate() * spec.n_threads
            assert solo_rate == pytest.approx(PAPER_SOLO_RATES[name], rel=0.01), name

    def test_all_two_threaded(self):
        # the paper runs every application with two threads
        assert all(spec.n_threads == 2 for spec in PAPER_APPS.values())

    def test_high_demand_apps_do_not_self_saturate(self):
        # Peak two-thread demand must stay below bus capacity so solo runs
        # reproduce Figure 1A (the paper's Raytrace anomaly excepted — see
        # EXPERIMENTS.md).
        from repro.workloads.patterns import MarkovBurstPattern, PhasedPattern

        for name, spec in PAPER_APPS.items():
            pattern = spec.pattern
            if isinstance(pattern, PhasedPattern):
                peak = max(rate for _, rate in pattern.phases)
            elif isinstance(pattern, MarkovBurstPattern):
                peak = pattern.high_rate_txus
            else:
                continue
            assert peak * spec.n_threads <= 31.5, name

    def test_migration_sensitive_apps(self):
        # the paper singles out LU CB (99.53% hit rate) and Water-nsqr
        assert PAPER_APPS["LU CB"].migration_sensitivity > 0
        assert PAPER_APPS["Water-nsqr"].migration_sensitivity > 0
        assert PAPER_APPS["CG"].migration_sensitivity == 0

    def test_lookup(self):
        assert paper_app("CG").name == "CG"
        with pytest.raises(WorkloadError):
            paper_app("DOOM")


class TestSoloCalibration:
    """End-to-end: solo runs measure the Figure 1A rates (±10 %)."""

    @pytest.mark.parametrize("name", ["Radiosity", "LU CB", "SP", "CG"])
    def test_solo_rate(self, name):
        from repro.experiments.base import solo_run

        result = solo_run(PAPER_APPS[name].scaled(0.1))
        assert result.workload_rate_txus == pytest.approx(
            PAPER_SOLO_RATES[name], rel=0.12
        )
