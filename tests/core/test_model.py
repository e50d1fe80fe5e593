"""Tests for the analytic contention model (repro.core.model)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BusConfig
from repro.core.model import ContentionModel
from repro.hw.bus import BusModel

_rates = st.lists(
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False), min_size=1, max_size=8
)


@pytest.fixture
def model() -> ContentionModel:
    return ContentionModel()


class TestPrediction:
    def test_empty(self, model):
        p = model.predict([])
        assert p.progress == 0.0
        assert not p.saturated

    def test_light_load_full_speed(self, model):
        p = model.predict([1.0, 2.0])
        assert all(s > 0.95 for s in p.speeds)
        assert not p.saturated

    def test_saturation_detected(self, model):
        p = model.predict([23.6] * 4)
        assert p.saturated
        assert p.throughput_txus == pytest.approx(29.5, rel=1e-3)

    def test_speeds_degrade_with_load(self, model):
        lone = model.predict([11.6]).speeds[0]
        crowded = model.predict([11.6] * 4).speeds[0]
        assert crowded < lone

    def test_matches_simulator_physics(self, model):
        """The predictor must agree with the hw bus model it mirrors."""
        bus = BusModel(BusConfig())
        for rates in ([11.655] * 4, [23.6] * 4, [1.4, 1.4, 23.6, 23.6], [2.0, 7.0]):
            predicted = model.predict(rates)
            actual = bus.solve(rates)
            for ps, grant in zip(predicted.speeds, actual.grants):
                assert ps == pytest.approx(grant.speed, rel=0.02)


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"capacity_txus": 0.0},
            {"streaming_rate_txus": -1.0},
            {"mem_exponent": 0.0},
            {"mem_exponent": 2.0},
            {"unfairness": -1.0},
            {"contention_coeff": -0.1},
        ],
    )
    def test_invalid_params(self, kw):
        with pytest.raises(ValueError):
            ContentionModel(**kw)

    def test_fit_from_field_measurements(self):
        # A deployment passes its own counters' saturated plateau and
        # streaming ceiling straight to the constructor.
        m = ContentionModel(capacity_txus=28.0, streaming_rate_txus=22.0)
        assert m.capacity_txus == 28.0
        assert m.streaming_rate_txus == 22.0
        assert m.predict([22.0, 22.0]).saturated


class TestMemFraction:
    def test_streaming_fully_bound(self, model):
        assert model.mem_fraction(23.6) == 1.0
        assert model.mem_fraction(100.0) == 1.0

    def test_zero(self, model):
        assert model.mem_fraction(0.0) == 0.0

    def test_monotone(self, model):
        vals = [model.mem_fraction(r) for r in (0.5, 2.0, 8.0, 20.0)]
        assert vals == sorted(vals)


class TestProperties:
    @given(_rates)
    @settings(max_examples=200, deadline=None)
    def test_throughput_conserved(self, rates):
        p = ContentionModel().predict(rates)
        assert p.throughput_txus <= 29.5 * (1 + 1e-6)

    @given(_rates)
    @settings(max_examples=200, deadline=None)
    def test_speeds_unit_interval(self, rates):
        p = ContentionModel().predict(rates)
        for s in p.speeds:
            assert 0.0 < s <= 1.0 + 1e-9

    @given(_rates, st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=150, deadline=None)
    def test_adding_thread_never_helps(self, rates, extra):
        m = ContentionModel()
        before = m.predict(rates)
        after = m.predict(list(rates) + [extra])
        for b, a in zip(before.speeds, after.speeds):
            assert a <= b * (1 + 1e-9)
