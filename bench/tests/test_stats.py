"""The estimators every reported number goes through."""

import statistics

import pytest

from bench import stats


def test_median_and_empty_sample():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_percentile_interpolates_inclusively():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert stats.percentile(values, 0.0) == 10.0
    assert stats.percentile(values, 1.0) == 50.0
    assert stats.percentile(values, 0.5) == 30.0
    # position 0.9 * 4 = 3.6 -> between the 4th and 5th value
    assert stats.percentile(values, 0.9) == pytest.approx(46.0)
    assert stats.percentile([7.0], 0.9) == 7.0
    assert stats.percentile([50.0, 10.0, 30.0], 0.5) == 30.0  # sorts first
    with pytest.raises(ValueError):
        stats.percentile(values, 1.5)
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_quartiles_are_the_drivers():
    values = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0]
    first, middle, third = stats.quartiles(values)
    expected = statistics.quantiles(values, n=4)
    assert [first, middle, third] == expected
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_spread_is_iqr_over_median():
    values = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    first, middle, third = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((third - first) / middle)
    assert stats.spread([3.0]) == 0.0
    assert stats.spread([2.0, 2.0, 2.0]) == 0.0


def test_worsening_follows_the_metric_direction():
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 90.0, "lower") == pytest.approx(-0.10)
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    with pytest.raises(ValueError):
        stats.worsening(1.0, 2.0, "sideways")


def test_event_percentiles_take_the_median_of_each_event_first():
    # Three events, three passes; one pass stalls on event "b".
    passes = [
        {"a": 10.0, "b": 20.0, "c": 30.0},
        {"a": 11.0, "b": 500.0, "c": 31.0},
        {"a": 12.0, "b": 21.0, "c": 32.0},
    ]
    latency = stats.event_percentiles(passes)
    # per-event medians are 11, 21, 31: the stall moved nothing
    assert latency.p50 == 21.0
    assert latency.p90 == pytest.approx(29.0)
    assert latency.events == 3
    assert latency.samples == 9


def test_p90_needs_a_hundred_samples():
    few = stats.event_percentiles([{index: float(index) for index in range(10)}] * 9)
    assert few.samples == 90 and not few.p90_supported
    enough = stats.event_percentiles([{index: float(index) for index in range(10)}] * 10)
    assert enough.samples == 100 and enough.p90_supported
    # the value is reported either way: the result line carries every metric
    assert few.p90 == enough.p90


def test_event_missing_from_a_pass_uses_the_passes_that_saw_it():
    latency = stats.event_percentiles([{"a": 1.0, "b": 9.0}, {"a": 3.0}])
    assert latency.events == 2 and latency.samples == 3
    assert latency.p50 == pytest.approx((2.0 + 9.0) / 2)


def test_no_events_at_all():
    assert stats.event_percentiles([{}, {}]) is None
