"""Tests for the model-driven policy (whole-set optimization)."""

import pytest

from repro.core.policies import JobView
from repro.core.policies_model import ModelDrivenPolicy
from repro.errors import SchedulingError


def _jobs(widths):
    return [JobView(app_id=i + 1, width=w) for i, w in enumerate(widths)]


def _feed(pol, app_id, rate, n=5, saturated=False):
    for _ in range(n):
        pol.on_sample(app_id, rate, saturated=saturated)


class TestSelection:
    def test_head_always_included(self):
        pol = ModelDrivenPolicy()
        _feed(pol, 1, 23.6)  # head is a monster
        sel = pol.select(_jobs([2, 1, 1]), n_cpus=4)
        assert 1 in sel.app_ids

    def test_fits_machine(self):
        pol = ModelDrivenPolicy()
        sel = pol.select(_jobs([2, 2, 2, 1, 1]), n_cpus=4)
        widths = {j.app_id: j.width for j in _jobs([2, 2, 2, 1, 1])}
        assert sum(widths[a] for a in sel.app_ids) <= 4

    def test_avoids_saturating_combination(self):
        # head: 12 tx/us/thread x2; candidates: an equally hungry app and a
        # silent one. Packing both hungry apps saturates; the optimizer
        # must prefer the silent companion.
        pol = ModelDrivenPolicy()
        _feed(pol, 1, 12.0)
        _feed(pol, 2, 12.0)
        _feed(pol, 3, 0.01)
        sel = pol.select(_jobs([2, 2, 2]), n_cpus=4)
        assert sel.app_ids == (1, 3)

    def test_packs_compatible_jobs(self):
        # light jobs all fit without contention: use the whole machine
        pol = ModelDrivenPolicy()
        for app in (1, 2, 3, 4):
            _feed(pol, app, 1.0)
        sel = pol.select(_jobs([1, 1, 1, 1]), n_cpus=4)
        assert set(sel.app_ids) == {1, 2, 3, 4}

    def test_may_leave_cpus_idle_to_protect_throughput(self):
        # every candidate is a streaming monster: adding a third halves
        # everyone; the optimizer stops early (idle penalty is small)
        pol = ModelDrivenPolicy(idle_penalty=0.0)
        for app in (1, 2, 3, 4):
            _feed(pol, app, 23.6)
        sel = pol.select(_jobs([1, 1, 1, 1]), n_cpus=4)
        assert len(sel.app_ids) < 4

    def test_too_wide_rejected(self):
        pol = ModelDrivenPolicy()
        with pytest.raises(SchedulingError):
            pol.select(_jobs([5]), n_cpus=4)

    def test_empty(self):
        pol = ModelDrivenPolicy()
        assert pol.select([], n_cpus=4).app_ids == ()


class TestDeficitFairness:
    def test_waiting_jobs_gain_priority(self):
        pol = ModelDrivenPolicy(fairness_weight=1.0)
        for app in (1, 2, 3):
            _feed(pol, app, 0.01)
        jobs = _jobs([2, 2, 2])
        first = pol.select(jobs, n_cpus=4)
        left_out = next(a for a in (1, 2, 3) if a not in first.app_ids)
        # rotate: ran jobs move back; the left-out job heads next round,
        # but even without heading its deficit weight must have grown
        assert pol._deficit(left_out) == 1
        for a in first.app_ids:
            assert pol._deficit(a) == 0

    def test_zero_fairness_weight_allowed(self):
        pol = ModelDrivenPolicy(fairness_weight=0.0)
        _feed(pol, 1, 1.0)
        sel = pol.select(_jobs([2, 2]), n_cpus=4)
        assert 1 in sel.app_ids

    def test_invalid_params(self):
        with pytest.raises(SchedulingError):
            ModelDrivenPolicy(fairness_weight=-1.0)
        with pytest.raises(SchedulingError):
            ModelDrivenPolicy(idle_penalty=-1.0)
        with pytest.raises(SchedulingError):
            ModelDrivenPolicy(saturation_inflation=0.5)


class TestSaturationInflation:
    def test_saturated_only_estimates_inflated(self):
        pol = ModelDrivenPolicy(saturation_inflation=1.5)
        _feed(pol, 1, 8.0, saturated=True)
        assert pol.model_rate(1) == pytest.approx(12.0)

    def test_unsaturated_sighting_trusts_estimate(self):
        pol = ModelDrivenPolicy(saturation_inflation=1.5, use_peak=False)
        _feed(pol, 1, 8.0, saturated=True)
        pol.on_sample(1, 8.0, saturated=False)
        assert pol.model_rate(1) == pytest.approx(8.0)

    def test_inflation_capped_at_streaming_ceiling(self):
        pol = ModelDrivenPolicy(saturation_inflation=3.0)
        _feed(pol, 1, 20.0, saturated=True)
        assert pol.model_rate(1) == pytest.approx(pol.model.streaming_rate_txus)

    def test_peak_mode_uses_window_maximum(self):
        pol = ModelDrivenPolicy(use_peak=True)
        pol.on_sample(1, 2.0)
        pol.on_sample(1, 10.0)
        pol.on_sample(1, 4.0)
        assert pol.model_rate(1) == pytest.approx(10.0)

    def test_forget_clears_all_state(self):
        pol = ModelDrivenPolicy()
        _feed(pol, 1, 5.0)
        pol.select(_jobs([1]), n_cpus=4)
        pol.forget(1)
        assert pol.estimate(1) is None
        assert 1 not in pol._last_ran
        assert 1 not in pol._seen_unsaturated


class TestBeamSearch:
    def test_large_job_count_uses_beam_and_fits(self):
        pol = ModelDrivenPolicy()
        jobs = _jobs([1] * 20)  # > exact limit
        for j in jobs:
            _feed(pol, j.app_id, 1.0)
        sel = pol.select(jobs, n_cpus=4)
        assert 0 < len(sel.app_ids) <= 4
        assert 1 in sel.app_ids  # head rule holds under beam search
