"""Tests for the round-robin time-series store."""

import pytest

from repro.monitoring import (
    DEFAULT_RESOLUTIONS,
    Resolution,
    RoundRobinSeries,
    RoundRobinStore,
)

TWO_LEVEL = (Resolution(10.0, 4), Resolution(30.0, 4))


def series_of(samples, resolutions=TWO_LEVEL):
    """The ``h/x`` series after ``(t, value)`` samples went through the
    store's one ingest, a packet each."""
    store = RoundRobinStore(resolutions)
    for t, value in samples:
        store.record("h", t, {"x": value})
    return store.get("h/x")


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
    # the third sample seals bucket 0 and opens bucket 10
    s = series_of([(1.0, 4.0), (9.0, 2.0), (12.0, 6.0)])
    rows = s.rows(10.0)
    assert rows == [(0.0, 2.0, 6.0, 2.0, 4.0), (10.0, 1.0, 6.0, 6.0, 6.0)]
    assert s.n_samples == 3


def test_means_and_min_max():
    s = series_of([(0.0, 1.0), (5.0, 3.0), (11.0, 10.0)])
    assert s.means(10.0) == [(0.0, 2.0), (10.0, 10.0)]
    first = s.rows(10.0)[0]
    assert first[3] == 1.0 and first[4] == 3.0  # min, max


def test_cascade_aggregates_exactly():
    # two 10 s buckets sealed inside the first 30 s bucket, then move on
    s = series_of([(t, t) for t in (0.0, 5.0, 10.0, 15.0, 31.0, 61.0)])
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
    s = series_of([(float(t), 1.0) for t in range(6)], (Resolution(1.0, 3),))
    s.close()
    assert [r[0] for r in s.rows(1.0)] == [3.0, 4.0, 5.0]


def test_closed_series_rejects_samples():
    store = RoundRobinStore(TWO_LEVEL)
    store.record("h", 1.0, {"x": 1.0})
    store.close_all()
    store.close_all()  # idempotent
    assert store.get("h/x").closed
    with pytest.raises(RuntimeError):
        store.record("h", 2.0, {"x": 1.0})


def test_close_flushes_open_buckets_all_the_way_down():
    s = series_of([(3.0, 7.0)])
    assert s.rows(30.0) == []  # nothing sealed yet
    s.close()
    assert s.rows(10.0) == [(0.0, 1.0, 7.0, 7.0, 7.0)]
    assert s.rows(30.0) == [(0.0, 1.0, 7.0, 7.0, 7.0)]


def test_unknown_ring_step_raises():
    s = RoundRobinSeries("x", TWO_LEVEL)
    with pytest.raises(KeyError):
        s.rows(99.0)


def test_store_record_makes_one_series_per_host_metric():
    store = RoundRobinStore(TWO_LEVEL)
    store.record("fe", 1.0, {"load": 1.0, "cpu": 0.5})
    store.record("fe", 2.0, {"load": 2.0})
    store.record("n1", 2.0, {"load": 4.0})
    assert store.n_series == 3
    assert store.get("fe/load").rows(10.0) == [(0.0, 2.0, 3.0, 1.0, 2.0)]
    assert store.get("fe/cpu").n_samples == 1
    assert store.get("missing") is None
    # a read folds what is buffered; later records keep folding in order
    store.record("fe", 12.0, {"load": 8.0})
    assert store.get("fe/load").means(10.0) == [(0.0, 1.5), (10.0, 8.0)]


def test_store_folds_a_host_once_it_buffers_1024_packets():
    store = RoundRobinStore(TWO_LEVEL)
    for i in range(1023):
        store.record("h", float(i), {"x": 1.0})
    assert len(store._pending["h"]) == 1023
    store.record("h", 1023.0, {"x": 1.0})
    assert store._pending == {}
    assert store.get("h/x").n_samples == 1024


def test_store_record_and_sorted_names():
    store = RoundRobinStore(TWO_LEVEL)
    store.record("b", 1.0, {"load": 2.0})
    store.record("a", 1.0, {"load": 3.0})
    assert store.series_names() == ["a/load", "b/load"]


def test_export_is_canonical_and_stable():
    def build():
        store = RoundRobinStore(TWO_LEVEL)
        store.record("z", 1.0, {"m": 5.0})
        store.record("a", 2.0, {"m": 7.0})
        store.record("a", 12.0, {"m": 1.0})
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
