"""Tests for the round-robin time-series store."""

import pytest

from repro.monitoring import (
    DEFAULT_RESOLUTIONS,
    Resolution,
    RoundRobinSeries,
    RoundRobinStore,
)
from repro.monitoring.rrd import feed_series

TWO_LEVEL = (Resolution(10.0, 4), Resolution(30.0, 4))


def feed(series, t, value):
    """One sample through the aggregator's ingest path."""
    feed_series([series], t, [(series.name, value)])


def test_resolution_validation():
    with pytest.raises(ValueError):
        Resolution(0.0, 10)
    with pytest.raises(ValueError):
        Resolution(10.0, 0)
    assert Resolution(15.0, 240).span == 3600.0


def test_series_requires_dividing_steps():
    with pytest.raises(ValueError):
        RoundRobinSeries("x", (Resolution(10.0, 4), Resolution(25.0, 4)))
    with pytest.raises(ValueError):
        RoundRobinSeries("x", ())
    # order given does not matter; rings sort finest-first
    s = RoundRobinSeries("x", (Resolution(30.0, 4), Resolution(10.0, 4)))
    assert [r.step for r in s.resolutions] == [10.0, 30.0]


def test_samples_bucket_into_finest_ring():
    s = RoundRobinSeries("load", TWO_LEVEL)
    feed(s, 1.0, 4.0)
    feed(s, 9.0, 2.0)
    feed(s, 12.0, 6.0)  # seals bucket 0, opens bucket 10
    rows = s.rows(10.0)
    assert rows == [(0.0, 2.0, 6.0, 2.0, 4.0), (10.0, 1.0, 6.0, 6.0, 6.0)]
    assert s.latest() == (12.0, 6.0)
    assert s.n_samples == 3


def test_means_and_min_max():
    s = RoundRobinSeries("load", TWO_LEVEL)
    for t, v in [(0.0, 1.0), (5.0, 3.0), (11.0, 10.0)]:
        feed(s, t, v)
    assert s.means(10.0) == [(0.0, 2.0), (10.0, 10.0)]
    first = s.rows(10.0)[0]
    assert first[3] == 1.0 and first[4] == 3.0  # min, max


def test_cascade_aggregates_exactly():
    s = RoundRobinSeries("x", TWO_LEVEL)
    # two 10 s buckets sealed inside the first 30 s bucket, then move on
    for t in (0.0, 5.0, 10.0, 15.0, 31.0, 61.0):
        feed(s, t, float(t))
    s.close()
    coarse = s.rows(30.0)
    # bucket 0 covers t in [0, 30): samples 0, 5, 10, 15
    assert coarse[0] == (0.0, 4.0, 30.0, 0.0, 15.0)
    # bucket 30 covers the lone t=31 sample
    assert coarse[1] == (30.0, 1.0, 31.0, 31.0, 31.0)
    # coarse aggregates equal what the raw samples would produce directly
    fine_total = sum(r[2] for r in s.rows(10.0))
    assert fine_total == sum(r[2] for r in coarse)


def test_ring_wraps_oldest_first():
    s = RoundRobinSeries("x", (Resolution(1.0, 3),))
    for t in range(6):
        feed(s, float(t), 1.0)
    s.close()
    assert [r[0] for r in s.rows(1.0)] == [3.0, 4.0, 5.0]


def test_closed_series_rejects_samples():
    s = RoundRobinSeries("x", TWO_LEVEL)
    feed(s, 1.0, 1.0)
    s.close()
    s.close()  # idempotent
    assert s.closed
    with pytest.raises(RuntimeError):
        feed(s, 2.0, 1.0)


def test_close_flushes_open_buckets_all_the_way_down():
    s = RoundRobinSeries("x", TWO_LEVEL)
    feed(s, 3.0, 7.0)
    assert s.rows(30.0) == []  # nothing sealed yet
    s.close()
    assert s.rows(10.0) == [(0.0, 1.0, 7.0, 7.0, 7.0)]
    assert s.rows(30.0) == [(0.0, 1.0, 7.0, 7.0, 7.0)]


def test_unknown_ring_step_raises():
    s = RoundRobinSeries("x", TWO_LEVEL)
    with pytest.raises(KeyError):
        s.rows(99.0)


def test_store_open_series_is_idempotent():
    store = RoundRobinStore(TWO_LEVEL)
    a = store.open_series("fe/load")
    assert store.open_series("fe/load") is a
    assert store.get("fe/load") is a
    assert store.get("missing") is None
    assert store.n_series == 1


def test_store_record_and_sorted_names():
    store = RoundRobinStore(TWO_LEVEL)
    feed(store.open_series("b/load"), 1.0, 2.0)
    feed(store.open_series("a/load"), 1.0, 3.0)
    assert store.series_names() == ["a/load", "b/load"]


def test_export_is_canonical_and_stable():
    def build():
        store = RoundRobinStore(TWO_LEVEL)
        z, a = store.open_series("z/m"), store.open_series("a/m")
        feed(z, 1.0, 5.0)
        feed(a, 2.0, 7.0)
        feed(a, 12.0, 1.0)
        store.close_all()
        return store

    doc = build().export()
    assert doc == build().export()
    assert doc["format"] == "repro-rrd"
    assert list(doc["series"]) == ["a/m", "z/m"]
    assert doc["resolutions"][0] == {"step": 10.0, "rows": 4}


def test_default_resolutions_cover_a_campaign():
    spans = [r.span for r in DEFAULT_RESOLUTIONS]
    assert spans == sorted(spans)
    assert spans[0] >= 3600.0  # the finest ring holds a full Table I run
