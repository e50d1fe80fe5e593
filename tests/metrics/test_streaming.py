"""Streaming-accumulator tests: P² envelope, collapsing batch means,
and streamed-vs-exact summary agreement."""

import math
import random

import numpy as np
import pytest

from repro.metrics.queueing import (
    DynamicStats,
    JobRecord,
    batch_means_ci,
    summarize_queueing,
)
from repro.metrics.streaming import (
    P2_RANK_TOLERANCE,
    REPORTED_QUANTILES,
    P2Quantile,
    StreamingBatchMeans,
    StreamingQueueingStats,
    Welford,
    exact_quantile,
)


class TestExactQuantile:
    def test_matches_numpy(self):
        rng = random.Random(3)
        values = sorted(rng.uniform(0, 100) for _ in range(37))
        for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
            assert exact_quantile(values, q) == pytest.approx(
                float(np.quantile(values, q))
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_quantile([], 0.5)
        with pytest.raises(ValueError):
            exact_quantile([1.0], 1.5)


class TestWelford:
    def test_matches_two_pass(self):
        rng = random.Random(11)
        values = [rng.gauss(50, 7) for _ in range(200)]
        w = Welford()
        for v in values:
            w.add(v)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert w.mean == pytest.approx(mean)
        assert w.variance() == pytest.approx(var)
        assert w.std() == pytest.approx(math.sqrt(var))

    def test_none_until_two(self):
        w = Welford()
        assert w.variance() is None
        w.add(3.0)
        assert w.variance() is None
        w.add(4.0)
        assert w.variance() == pytest.approx(0.5)


class TestP2Quantile:
    def test_exact_up_to_five_observations(self):
        sketch = P2Quantile(0.5)
        assert sketch.value() is None
        seen = []
        for x in [9.0, 2.0, 7.0, 4.0, 5.0]:
            sketch.add(x)
            seen.append(x)
            assert sketch.value() == pytest.approx(
                exact_quantile(sorted(seen), 0.5)
            )

    @pytest.mark.parametrize("q", REPORTED_QUANTILES)
    @pytest.mark.parametrize(
        "sampler",
        [
            lambda rng: rng.random(),
            lambda rng: rng.expovariate(1.0),
            lambda rng: rng.lognormvariate(0.0, 1.0),
        ],
        ids=["uniform", "exponential", "lognormal"],
    )
    def test_rank_envelope(self, q, sampler):
        """Estimate stays between the exact q±tolerance empirical quantiles."""
        rng = random.Random(hash((q, id(sampler))) % 2**31)
        sketch = P2Quantile(q)
        values = []
        for _ in range(5000):
            x = sampler(rng)
            sketch.add(x)
            values.append(x)
        values.sort()
        lo = exact_quantile(values, max(0.0, q - P2_RANK_TOLERANCE))
        hi = exact_quantile(values, min(1.0, q + P2_RANK_TOLERANCE))
        assert lo <= sketch.value() <= hi

    def test_rejects_non_finite(self):
        sketch = P2Quantile(0.95)
        with pytest.raises(ValueError):
            sketch.add(math.nan)
        with pytest.raises(ValueError):
            sketch.add(math.inf)

    def test_validation(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)


class TestStreamingBatchMeans:
    def test_buffered_regime_bit_identical(self):
        """Below the spill threshold the stream IS batch_means_ci."""
        rng = random.Random(5)
        values = [rng.uniform(1, 100) for _ in range(37)]
        sbm = StreamingBatchMeans(n_batches=10)
        for v in values:
            sbm.add(v)
        assert sbm.result() == batch_means_ci(values, n_batches=10)
        assert sbm.mean() == sum(values) / len(values)

    def test_collapsed_regime_mean_bit_identical(self):
        rng = random.Random(6)
        values = [rng.expovariate(0.01) for _ in range(10_000)]
        sbm = StreamingBatchMeans(n_batches=10)
        for v in values:
            sbm.add(v)
        assert sbm.mean() == sum(values) / len(values)

    def test_collapsed_regime_ci_sane(self):
        """Collapsed CI approximates the exact batch-means interval."""
        rng = random.Random(7)
        values = [rng.gauss(100, 15) for _ in range(10_000)]
        sbm = StreamingBatchMeans(n_batches=10)
        for v in values:
            sbm.add(v)
        mean, hw = sbm.result()
        exact_mean, exact_hw = batch_means_ci(values, n_batches=10)
        assert mean == pytest.approx(exact_mean)
        assert hw is not None and hw > 0
        # Same order of magnitude as the exact interval (both are valid
        # batch-means CIs over differently-sized batches).
        assert 0.2 * exact_hw < hw < 5.0 * exact_hw

    def test_memory_stays_bounded(self):
        sbm = StreamingBatchMeans(n_batches=10)
        for i in range(100_000):
            sbm.add(float(i % 97))
        assert sbm._buffer is None
        assert len(sbm._batch_sums) < 2 * sbm.n_batches
        assert sbm.n == 100_000

    def test_empty_and_singleton(self):
        sbm = StreamingBatchMeans()
        assert sbm.result() is None
        assert sbm.mean() is None
        sbm.add(4.0)
        mean, hw = sbm.result()
        assert mean == 4.0
        assert hw is None

    def test_rejects_non_finite(self):
        sbm = StreamingBatchMeans()
        with pytest.raises(ValueError):
            sbm.add(math.nan)

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingBatchMeans(n_batches=1)
        with pytest.raises(ValueError):
            StreamingBatchMeans(confidence=0.0)


def _random_run(rng, n_jobs, warmup_jobs, tau_us):
    """Synthesize a plausible completed-jobs trace with distinct times."""
    jobs = []
    t = 0.0
    for i in range(n_jobs):
        t += rng.uniform(10.0, 500.0)
        arrival = t
        admit = arrival + rng.uniform(0.0, 200.0)
        completion = admit + rng.uniform(50.0, 2000.0)
        jobs.append(
            JobRecord(
                index=i,
                name="CG",
                arrival_us=arrival,
                admit_us=admit,
                completion_us=completion,
                nominal_service_us=rng.uniform(40.0, 400.0),
                app_id=i + 1,
            )
        )
    return jobs


def _stats_for(jobs, streaming=None, record=True):
    horizon = max(j.completion_us for j in jobs)
    return DynamicStats(
        jobs=tuple(jobs) if record else (),
        queue_len_time_avg=0.5,
        max_queue_len=2,
        dropped=0,
        max_starvation_age_us=50.0,
        starvation_bound_us=1000.0,
        starvation_violations=0,
        utilization_time_avg=0.4,
        saturated_fraction=0.1,
        horizon_us=horizon,
        streaming=streaming,
    )


class TestStreamedVsExact:
    """Property test: the streamed summary matches the exact record-based
    one on randomized small runs (identical mean/throughput/CI; quantiles
    within the documented sketch tolerance)."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("warmup", [0, 3])
    def test_agreement(self, seed, warmup):
        rng = random.Random(seed)
        n_jobs = rng.randint(warmup + 4, 35)
        tau_us = rng.choice([0.0, 100.0])
        jobs = _random_run(rng, n_jobs, warmup, tau_us)

        stream = StreamingQueueingStats(warmup_jobs=warmup, tau_us=tau_us)
        for j in sorted(jobs, key=lambda j: (j.completion_us, j.index)):
            stream.observe(
                arrival_us=j.arrival_us,
                admit_us=j.admit_us,
                completion_us=j.completion_us,
                nominal_service_us=j.nominal_service_us,
            )
        snap = stream.snapshot(n_scheduled=n_jobs, n_dropped=0)

        exact = summarize_queueing(
            _stats_for(jobs), warmup_jobs=warmup, tau_us=tau_us
        )
        streamed = summarize_queueing(
            _stats_for(jobs, streaming=snap, record=False),
            warmup_jobs=warmup,
            tau_us=tau_us,
        )

        # Small runs stay in the buffered regime: bit-identical moments.
        assert streamed.mean_response_us == exact.mean_response_us
        assert streamed.response_ci_us == exact.response_ci_us
        assert streamed.mean_slowdown == exact.mean_slowdown
        assert streamed.slowdown_ci == exact.slowdown_ci
        assert streamed.mean_wait_us == pytest.approx(exact.mean_wait_us)
        assert streamed.throughput_jobs_per_s == exact.throughput_jobs_per_s
        assert streamed.n_completed == exact.n_completed
        assert streamed.n_dropped == exact.n_dropped

        # Quantiles: within the documented rank envelope of the exact ones,
        # widened by a few ranks for these tiny samples (the strict
        # P2_RANK_TOLERANCE bound is enforced at n=5000 in TestP2Quantile).
        kept = sorted(jobs, key=lambda j: (j.completion_us, j.index))[warmup:]
        responses = sorted(j.completion_us - j.arrival_us for j in kept)
        tol = P2_RANK_TOLERANCE + 3.0 / len(responses)
        for q, attr in [
            (0.5, "response_p50_us"),
            (0.95, "response_p95_us"),
            (0.99, "response_p99_us"),
        ]:
            estimate = getattr(streamed, attr)
            lo = exact_quantile(responses, max(0.0, q - tol))
            hi = exact_quantile(responses, min(1.0, q + tol))
            assert lo <= estimate <= hi

    def test_config_mismatch_rejected(self):
        jobs = _random_run(random.Random(0), 10, 0, 0.0)
        stream = StreamingQueueingStats(warmup_jobs=2)
        for j in jobs:
            stream.observe(j.arrival_us, j.admit_us, j.completion_us, 100.0)
        snap = stream.snapshot(n_scheduled=10, n_dropped=0)
        stats = _stats_for(jobs, streaming=snap, record=False)
        with pytest.raises(ValueError, match="warmup"):
            summarize_queueing(stats, warmup_jobs=0)

    def test_no_records_no_stream_raises(self):
        jobs = _random_run(random.Random(1), 5, 0, 0.0)
        stats = _stats_for(jobs, streaming=None, record=False)
        with pytest.raises(ValueError):
            summarize_queueing(stats)

    def test_all_warmup_raises(self):
        stream = StreamingQueueingStats(warmup_jobs=10)
        for i in range(5):
            stream.observe(0.0, 1.0, float(i + 2), 1.0)
        snap = stream.snapshot(n_scheduled=5, n_dropped=0)
        stats = _stats_for(
            _random_run(random.Random(2), 5, 0, 0.0), streaming=snap, record=False
        )
        with pytest.raises(ValueError, match="warmup"):
            summarize_queueing(stats, warmup_jobs=10)


class TestStreamingQueueingStats:
    def test_warmup_anchor_tracked(self):
        stream = StreamingQueueingStats(warmup_jobs=2)
        stream.observe(0.0, 0.0, 100.0, 50.0)
        stream.observe(0.0, 0.0, 250.0, 50.0)
        stream.observe(0.0, 0.0, 400.0, 50.0)
        snap = stream.snapshot(n_scheduled=3, n_dropped=0)
        assert snap.warmup_anchor_us == 250.0
        assert snap.n_observed == 3
        assert snap.n_kept == 1
        assert snap.first_kept_completion_us == 400.0

    def test_snapshot_is_dataclass_equal(self):
        def build():
            s = StreamingQueueingStats(warmup_jobs=1, tau_us=10.0)
            for i in range(20):
                s.observe(i * 10.0, i * 10.0 + 2.0, i * 10.0 + 50.0, 25.0)
            return s.snapshot(n_scheduled=20, n_dropped=1)

        assert build() == build()

    def test_quantile_lookup(self):
        stream = StreamingQueueingStats()
        for i in range(50):
            stream.observe(0.0, 0.0, float(i + 1), 1.0)
        snap = stream.snapshot(n_scheduled=50, n_dropped=0)
        assert snap.quantile(0.5) is not None
        assert snap.quantile(0.5, slowdown=True) is not None
        assert snap.quantile(0.123) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingQueueingStats(warmup_jobs=-1)
        with pytest.raises(ValueError):
            StreamingQueueingStats(tau_us=-1.0)
