"""Figure 2 harness tests (small scale, qualitative shapes)."""

import pytest

from repro.core.policies import EwmaPolicy, LatestQuantumPolicy, QuantaWindowPolicy
from repro.errors import ConfigError
from repro.experiments.fig2 import WORKLOAD_SETS, format_fig2, run_fig2


@pytest.fixture(scope="module")
def set_a_rows():
    return run_fig2("A", work_scale=0.08, apps=["Barnes", "CG"])


class TestStructure:
    def test_sets_defined(self):
        assert set(WORKLOAD_SETS) == {"A", "B", "C"}
        assert WORKLOAD_SETS["C"] == ("BBMA", "BBMA", "nBBMA", "nBBMA")

    def test_unknown_set_rejected(self):
        with pytest.raises(ConfigError):
            run_fig2("D", work_scale=0.05, apps=["CG"])

    def test_rows_and_cells(self, set_a_rows):
        assert [r.name for r in set_a_rows] == ["Barnes", "CG"]
        for row in set_a_rows:
            assert {c.policy for c in row.cells} == {"latest-quantum", "quanta-window"}
            assert row.linux_turnaround_us > 0

    def test_improvement_lookup(self, set_a_rows):
        row = set_a_rows[0]
        assert row.improvement("latest-quantum") == row.cells[0].improvement_percent
        with pytest.raises(KeyError):
            row.improvement("nonexistent")


class TestShapes:
    def test_policies_beat_linux_on_saturated_bus(self, set_a_rows):
        # Set A is the paper's headline: every app improves.
        for row in set_a_rows:
            for cell in row.cells:
                assert cell.improvement_percent > 0, (row.name, cell.policy)

    def test_improvement_consistent_with_turnarounds(self, set_a_rows):
        for row in set_a_rows:
            for cell in row.cells:
                expected = (row.linux_turnaround_us - cell.turnaround_us) / row.linux_turnaround_us * 100
                assert cell.improvement_percent == pytest.approx(expected)


class TestPolicyCloning:
    """Every run learns on its own copy of a policy template."""

    def _run(self, template):
        return run_fig2("A", work_scale=0.05, apps=["CG"], policies=[template])

    def test_fresh_window_policy(self):
        template = QuantaWindowPolicy(window_length=7)
        first = self._run(template)
        assert template.window_length == 7
        assert template.estimate(1) is None  # no state leaked back
        assert self._run(template) == first

    def test_fresh_latest_policy(self):
        template = LatestQuantumPolicy(bus_capacity_txus=20.0)
        first = self._run(template)
        assert template.bus_capacity_txus == 20.0
        assert template.estimate(1) is None
        assert self._run(template) == first

    def test_fresh_ewma_policy(self):
        template = EwmaPolicy(alpha=0.25)
        first = self._run(template)
        assert template.alpha == 0.25
        assert template.estimate(1) is None
        assert first[0].cells[0].policy == template.name


class TestFormatting:
    def test_render(self, set_a_rows):
        out = format_fig2("A", set_a_rows)
        assert "FIG-2A" in out
        assert "latest-quantum" in out
        assert "%" in out

    def test_empty_rows_rejected(self):
        with pytest.raises(ConfigError):
            format_fig2("A", [])
