import pytest

import stats


@pytest.mark.parametrize("n", [11, 12, 50, 101, 1000])
def test_tail_leaves_at_least_ten_samples_beyond(n):
    values = [float(v) for v in range(n)]
    value, pct, count = stats.tail(values)
    assert count == n
    assert sum(1 for v in values if v > value) == stats.TAIL_BEYOND
    # The next higher sample would leave only nine beyond it.
    assert sum(1 for v in values if v > value + 1) < stats.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - 11) / (n - 1))


def test_tail_of_1000_samples_is_p99():
    value, pct, _ = stats.tail([float(v) for v in range(1000)])
    assert value == 989.0
    assert pct == pytest.approx(98.998998)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
    assert stats.tail(values)[0] == 1.0


def test_too_few_samples_have_no_tail():
    assert stats.tail([1.0] * 10) == (0.0, 0.0, 10)
    assert stats.median([]) == 0.0
