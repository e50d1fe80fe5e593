"""Moving-window and EWMA estimator tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.window import EwmaEstimator, MovingWindow

_samples = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=50
)


class TestMovingWindow:
    def test_empty_average_none(self):
        assert MovingWindow(3).average() is None

    def test_partial_fill(self):
        w = MovingWindow(5)
        w.push(2.0)
        w.push(4.0)
        assert w.average() == 3.0

    def test_eviction(self):
        w = MovingWindow(3)
        for x in (1.0, 2.0, 3.0, 4.0):
            w.push(x)
        assert w.average() == 3.0

    def test_length_one_is_latest(self):
        w = MovingWindow(1)
        w.push(5.0)
        w.push(9.0)
        assert w.average() == 9.0

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            MovingWindow(0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        # A NaN pushed into the window would poison every average it
        # touches; the estimator refuses it at the boundary instead.
        w = MovingWindow(3)
        w.push(2.0)
        with pytest.raises(ValueError):
            w.push(bad)
        assert w.average() == 2.0  # the rejected sample left no trace

    @given(_samples, st.integers(min_value=1, max_value=10))
    @settings(max_examples=200, deadline=None)
    def test_average_bounded_by_extremes(self, samples, length):
        w = MovingWindow(length)
        for s in samples:
            w.push(s)
        recent = samples[-length:]
        assert min(recent) - 1e-9 <= w.average() <= max(recent) + 1e-9

    @given(_samples)
    @settings(max_examples=100, deadline=None)
    def test_window_smooths_at_most_latest(self, samples):
        # |avg - mean(all)| <= |latest - mean| is not universally true; the
        # meaningful invariant: the window average equals the arithmetic
        # mean of the retained samples.
        w = MovingWindow(5)
        for s in samples:
            w.push(s)
        retained = samples[-5:]
        assert w.average() == pytest.approx(sum(retained) / len(retained))


class TestEwma:
    def test_first_sample_is_estimate(self):
        e = EwmaEstimator(0.2)
        e.push(10.0)
        assert e.average() == 10.0

    def test_update_rule(self):
        e = EwmaEstimator(0.5)
        e.push(4.0)
        e.push(8.0)
        assert e.average() == 6.0

    def test_alpha_one_tracks_latest(self):
        e = EwmaEstimator(1.0)
        e.push(3.0)
        e.push(7.0)
        assert e.average() == 7.0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            EwmaEstimator(0.0)
        with pytest.raises(ValueError):
            EwmaEstimator(1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        e = EwmaEstimator(0.5)
        e.push(4.0)
        with pytest.raises(ValueError):
            e.push(bad)
        assert e.average() == 4.0

    @given(_samples, st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_estimate_bounded_by_extremes(self, samples, alpha):
        e = EwmaEstimator(alpha)
        for s in samples:
            e.push(s)
        assert min(samples) - 1e-9 <= e.average() <= max(samples) + 1e-9

    @given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_constant_stream_converges_exactly(self, value, alpha):
        e = EwmaEstimator(alpha)
        for _ in range(10):
            e.push(value)
        assert e.average() == pytest.approx(value)


class TestLastUpdateTime:
    """Both estimators expose when they last ingested a sample."""

    @pytest.mark.parametrize("make", [lambda: MovingWindow(3), lambda: EwmaEstimator(0.5)])
    def test_starts_unset(self, make):
        assert make().last_update_time is None

    @pytest.mark.parametrize("make", [lambda: MovingWindow(3), lambda: EwmaEstimator(0.5)])
    def test_untimed_push_leaves_unset(self, make):
        est = make()
        est.push(1.0)
        assert est.last_update_time is None

    @pytest.mark.parametrize("make", [lambda: MovingWindow(3), lambda: EwmaEstimator(0.5)])
    def test_tracks_latest_timed_push(self, make):
        est = make()
        est.push(1.0, time_us=10.0)
        assert est.last_update_time == 10.0
        est.push(2.0, time_us=35.5)
        assert est.last_update_time == 35.5
        # An untimed push in between does not rewind the timestamp.
        est.push(3.0)
        assert est.last_update_time == 35.5
