import pytest

import spans


def test_self_time_arithmetic_on_a_synthetic_nest(monkeypatch):
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    monkeypatch.setattr(spans, "_clock", lambda: next(ticks))
    rec = spans.Recorder()

    def leaf():
        return None

    def inner():
        rec.call("a1", leaf, (), {})

    def outer():
        rec.call("a", inner, (), {})
        rec.call("b", leaf, (), {})

    rec.call("root", outer, (), {})
    snap = rec.snapshot()
    assert {k: v[2] for k, v in snap["agg"].items()} == pytest.approx(
        {"root": 3.0, "a": 2.0, "a1": 1.0, "b": 4.0})
    # Self times add up to the root's wall time.
    assert sum(v[2] for v in snap["agg"].values()) == pytest.approx(10.0)
    assert snap["root_s"] == {"MainThread": 10.0}
    by_name = {s[0]: s for s in rec.raw}
    assert by_name["a"][4] == by_name["root"][3]  # parent link recorded
    assert "a1" not in by_name  # deeper levels are aggregated only


def test_same_name_reentry_folds_into_the_outer_span():
    rec = spans.Recorder()

    def inner():
        return 7

    def outer():
        return rec.call("x", inner, (), {})

    assert rec.call("x", outer, (), {}) == 7
    assert rec.snapshot()["agg"]["x"][0] == 1


def test_ledger_flags_a_key_whose_counts_change():
    rec = spans.Recorder()
    rec.record_run("k", {"events_fired": 3})
    rec.record_run("k", {"events_fired": 3})
    assert rec.snapshot()["ledger_conflicts"] == []
    rec.record_run("k", {"events_fired": 4})
    assert rec.snapshot()["ledger_conflicts"] == ["k"]
