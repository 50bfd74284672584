"""Unit tests for the recovery-lag histogram of protocol health."""

import pytest

from repro.obs.health import Histogram


def test_histogram_bucketing():
    h = Histogram("lat", bounds=(10, 100, 1000))
    for v in (5, 10, 50, 500, 5000):
        h.observe(v)
    # bisect_left on inclusive upper edges: 5,10 -> <=10; 50 -> <=100;
    # 500 -> <=1000; 5000 -> overflow
    assert h.counts == [2, 1, 1, 1]
    assert h.count == 5
    assert h.min == 5 and h.max == 5000
    assert h.mean == pytest.approx(5565 / 5)


def test_histogram_quantile_upper_bound():
    h = Histogram("lat", bounds=(10, 100, 1000))
    for v in (1, 2, 3, 50, 5000):
        h.observe(v)
    assert h.quantile(0.5) == 10       # 3 of 5 in the first bucket
    assert h.quantile(0.8) == 100
    assert h.quantile(1.0) == 5000     # overflow reports the true max
    assert Histogram("e", bounds=(10,)).quantile(0.5) == 0.0
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_quantile_never_exceeds_the_max():
    """A bucket's upper edge is clamped to the largest sample, so the
    percentiles a report prints satisfy p50 <= p90 <= max."""
    h = Histogram("lat", bounds=(10, 100, 1000))
    for v in (1, 2, 3):
        h.observe(v)
    assert h.quantile(0.5) == h.quantile(0.9) == h.quantile(1.0) == 3
    h.observe(73)                       # max now inside the 100 bucket
    assert h.quantile(0.5) == 10 and h.quantile(0.9) == 73
    for values in ((5,), (10,), (11, 12), (1, 99, 101, 999), (0.5, 2000)):
        h = Histogram("lat", bounds=(10, 100, 1000))
        for v in values:
            h.observe(v)
        qs = [h.quantile(q / 20) for q in range(21)]
        assert qs == sorted(qs) and qs[-1] == h.max, values
        assert h.quantile(0.5) <= h.quantile(0.9) <= h.max


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(10, 10, 20))
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(20, 10))


def test_histogram_render_and_rows():
    h = Histogram("lat", bounds=(10, 100))
    h.observe(5)
    h.observe(500)
    rows = h.bucket_rows()
    assert rows == [("<= 10", 1), ("<= 100", 0), ("> 100", 1)]
    text = h.render()
    assert "lat: n=2" in text and "#" in text
