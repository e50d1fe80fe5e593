"""Unit tests for repro.units."""

import pytest

from repro import units


class TestTimeHelpers:
    def test_ms_converts_to_microseconds(self):
        assert units.ms(200) == 200_000.0

    def test_seconds_converts_to_microseconds(self):
        assert units.seconds(2) == 2_000_000.0

    def test_roundtrip_ms(self):
        assert units.ms(123.5) / units.MSEC == pytest.approx(123.5)

    def test_roundtrip_seconds(self):
        assert units.seconds(0.75) / units.SEC == pytest.approx(0.75)

    def test_constants_consistent(self):
        assert units.SEC == 1000 * units.MSEC
        assert units.MSEC == 1000 * units.USEC


class TestBandwidthConversion:
    def test_stream_bandwidth_matches_transactions(self):
        # The paper's 1797 MB/s and 29.5 tx/us describe the same measurement
        # at "approximately 64 bytes" per transaction; the pair implies
        # ~61 B, so the conversion agrees only to ~5 %.
        assert units.mbps_to_txus(units.STREAM_BANDWIDTH_MBPS) == pytest.approx(
            units.STREAM_CAPACITY_TXUS, rel=0.06
        )

    def test_roundtrip(self):
        assert units.txus_to_mbps(units.mbps_to_txus(1000.0)) == pytest.approx(1000.0)

    def test_l2_geometry(self):
        assert units.XEON_L2_LINES == 4096
        assert units.XEON_L2_BYTES == 256 * 1024

    def test_peak_exceeds_sustained(self):
        assert units.PEAK_BANDWIDTH_MBPS > units.STREAM_BANDWIDTH_MBPS


class TestClamp:
    def test_clamps_low(self):
        assert units.clamp(-1.0, 0.0, 1.0) == 0.0

    def test_clamps_high(self):
        assert units.clamp(2.0, 0.0, 1.0) == 1.0

    def test_identity_inside(self):
        assert units.clamp(0.5, 0.0, 1.0) == 0.5

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            units.clamp(0.0, 1.0, 0.0)

