"""Unit tests for demand patterns."""

import math

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.patterns import (
    ConstantPattern,
    JitterPattern,
    MarkovBurstPattern,
    PhasedPattern,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestConstant:
    def test_segment_infinite(self):
        proc = ConstantPattern(3.0).bind(_rng())
        assert proc.segment(0.0) == (3.0, math.inf)
        assert proc.segment(1e9) == (3.0, math.inf)

    def test_mean_rate(self):
        assert ConstantPattern(3.0).mean_rate() == 3.0

    def test_negative_rejected(self):
        with pytest.raises(WorkloadError):
            ConstantPattern(-1.0)


class TestPhased:
    def test_cycle_lookup(self):
        p = PhasedPattern(((100.0, 1.0), (50.0, 10.0))).bind(_rng())
        assert p.segment(0.0) == (1.0, 100.0)
        assert p.segment(99.9) == (1.0, 100.0)
        assert p.segment(100.0) == (10.0, 150.0)
        assert p.segment(149.0) == (10.0, 150.0)

    def test_repeats_across_cycles(self):
        p = PhasedPattern(((100.0, 1.0), (50.0, 10.0))).bind(_rng())
        rate, end = p.segment(150.0)  # start of cycle 2
        assert rate == 1.0
        assert end == 250.0

    def test_boundary_exact(self):
        p = PhasedPattern(((100.0, 1.0), (50.0, 10.0))).bind(_rng())
        rate, end = p.segment(150.0 * 7)  # exactly on a cycle boundary
        assert rate == 1.0

    def test_mean_rate_weighted(self):
        pat = PhasedPattern(((100.0, 1.0), (50.0, 10.0)))
        assert pat.mean_rate() == pytest.approx(4.0)

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            PhasedPattern(())

    def test_zero_length_phase_rejected(self):
        with pytest.raises(WorkloadError):
            PhasedPattern(((0.0, 1.0),))

    def test_negative_work_query_rejected(self):
        p = PhasedPattern(((10.0, 1.0),)).bind(_rng())
        with pytest.raises(WorkloadError):
            p.segment(-1.0)


class TestMarkovBurst:
    def _pattern(self, **kw):
        defaults = dict(
            low_rate_txus=2.0,
            high_rate_txus=15.0,
            mean_low_work_us=1000.0,
            mean_high_work_us=500.0,
        )
        defaults.update(kw)
        return MarkovBurstPattern(**defaults)

    def test_rates_alternate(self):
        proc = self._pattern().bind(_rng(1))
        rates = []
        work = 0.0
        for _ in range(20):
            rate, end = proc.segment(work)
            rates.append(rate)
            work = end
        # strictly alternating between the two states
        for a, b in zip(rates, rates[1:]):
            assert a != b
        assert set(rates) == {2.0, 15.0}

    def test_deterministic_per_seed(self):
        a = self._pattern().bind(_rng(7))
        b = self._pattern().bind(_rng(7))
        for w in (0.0, 100.0, 5000.0, 20_000.0):
            assert a.segment(w) == b.segment(w)

    def test_non_monotone_queries_supported(self):
        proc = self._pattern().bind(_rng(3))
        first = proc.segment(10_000.0)
        early = proc.segment(0.0)
        assert proc.segment(10_000.0) == first
        assert proc.segment(0.0) == early

    def test_mean_rate(self):
        pat = self._pattern()
        expected = (2.0 * 1000 + 15.0 * 500) / 1500
        assert pat.mean_rate() == pytest.approx(expected)

    def test_long_run_average_approaches_mean(self):
        pat = self._pattern()
        proc = pat.bind(_rng(11))
        total_tx = 0.0
        work = 0.0
        while work < 3e6:
            rate, end = proc.segment(work)
            end = min(end, 3e6)
            total_tx += rate * (end - work)
            work = end
        assert total_tx / 3e6 == pytest.approx(pat.mean_rate(), rel=0.1)

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            self._pattern(low_rate_txus=-1.0)
        with pytest.raises(WorkloadError):
            self._pattern(mean_low_work_us=0.0)
        with pytest.raises(WorkloadError):
            self._pattern(high_rate_txus=1.0)  # below low rate


class TestJitter:
    def test_rate_within_band(self):
        proc = JitterPattern(10.0, jitter=0.2, chunk_work_us=100.0).bind(_rng(5))
        for w in np.linspace(0, 10_000, 50):
            rate, _ = proc.segment(float(w))
            assert 8.0 <= rate <= 12.0

    def test_chunk_boundaries(self):
        proc = JitterPattern(10.0, jitter=0.2, chunk_work_us=100.0).bind(_rng(5))
        rate, end = proc.segment(0.0)
        assert end == 100.0
        rate2, end2 = proc.segment(100.0)
        assert end2 == 200.0

    def test_deterministic(self):
        a = JitterPattern(10.0, 0.3, 50.0).bind(_rng(9))
        b = JitterPattern(10.0, 0.3, 50.0).bind(_rng(9))
        assert [a.segment(w) for w in (0.0, 60.0, 500.0)] == [
            b.segment(w) for w in (0.0, 60.0, 500.0)
        ]

    def test_mean_rate(self):
        assert JitterPattern(10.0).mean_rate() == 10.0

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            JitterPattern(-1.0)
        with pytest.raises(WorkloadError):
            JitterPattern(1.0, jitter=1.0)
        with pytest.raises(WorkloadError):
            JitterPattern(1.0, chunk_work_us=0.0)


class TestTrace:
    def test_segments_replayed(self):
        from repro.workloads.patterns import TracePattern

        proc = TracePattern(((100.0, 2.0), (50.0, 8.0))).bind(_rng())
        assert proc.segment(0.0) == (2.0, 100.0)
        assert proc.segment(50.0) == (2.0, 100.0)
        assert proc.segment(100.0) == (8.0, 150.0)

    def test_tail_holds_after_trace(self):
        from repro.workloads.patterns import TracePattern
        import math as _math

        proc = TracePattern(((10.0, 5.0),), tail_rate_txus=1.0).bind(_rng())
        rate, end = proc.segment(10.0)
        assert rate == 1.0
        assert end == _math.inf

    def test_default_tail_is_last_rate(self):
        from repro.workloads.patterns import TracePattern

        proc = TracePattern(((10.0, 5.0), (10.0, 9.0))).bind(_rng())
        assert proc.segment(100.0)[0] == 9.0

    def test_mean_rate(self):
        from repro.workloads.patterns import TracePattern

        assert TracePattern(((100.0, 2.0), (100.0, 6.0))).mean_rate() == pytest.approx(4.0)

    def test_from_counter_samples(self):
        from repro.workloads.patterns import TracePattern

        t = TracePattern.from_counter_samples([(0.0, 0.0), (100.0, 300.0), (150.0, 400.0)])
        assert t.segments == ((100.0, 3.0), (50.0, 2.0))

    def test_invalid_samples(self):
        from repro.workloads.patterns import TracePattern

        with pytest.raises(WorkloadError):
            TracePattern.from_counter_samples([(0.0, 0.0)])
        with pytest.raises(WorkloadError):
            TracePattern.from_counter_samples([(0.0, 0.0), (0.0, 1.0)])
        with pytest.raises(WorkloadError):
            TracePattern.from_counter_samples([(0.0, 5.0), (10.0, 1.0)])

    def test_invalid_segments(self):
        from repro.workloads.patterns import TracePattern

        with pytest.raises(WorkloadError):
            TracePattern(())
        with pytest.raises(WorkloadError):
            TracePattern(((0.0, 1.0),))
        with pytest.raises(WorkloadError):
            TracePattern(((1.0, -1.0),))

    def test_runs_on_machine(self):
        from repro.workloads.patterns import TracePattern
        from repro.experiments.base import SimulationSpec, run_simulation
        from repro.workloads.base import ApplicationSpec

        spec = ApplicationSpec(
            name="traced",
            n_threads=1,
            work_per_thread_us=300.0,
            pattern=TracePattern(((100.0, 1.0), (100.0, 20.0))),
            footprint_lines=0.0,
        )
        result = run_simulation(
            SimulationSpec(targets=[spec], scheduler="dedicated", trace=False)
        )
        assert result.mean_target_turnaround_us() > 0
