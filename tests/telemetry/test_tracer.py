"""Tracer, metrics, export, schema, and summary unit tests."""

import json

import pytest

from repro.netsim import Environment
from repro.telemetry import (
    Metrics,
    NULL_TRACER,
    NullMetrics,
    Tracer,
    percentile,
    summarize,
    to_jsonl,
    validate_trace_lines,
    validate_trace_text,
    write_jsonl,
)


# -- zero-overhead default ----------------------------------------------------

def test_environment_defaults_to_null_tracer():
    env = Environment()
    assert env.tracer is NULL_TRACER
    assert not env.tracer.enabled


def test_null_tracer_records_nothing():
    t = NULL_TRACER
    t.event("kind", "name", detail=1)
    span = t.span("kind", "name")
    span.end(outcome="ok")
    t.record_span("kind", "name", 0.0)
    t.metrics.inc("c")
    t.metrics.gauge("g", 1.0)
    t.metrics.adjust("a", 1)
    assert t.n_records == 0
    assert list(t.iter_records()) == []
    assert t.metrics.samples("g") == []
    assert t.metrics.gauge_names() == []


# -- spans and events ---------------------------------------------------------

def test_span_captures_simulated_time_and_attrs():
    env = Environment()
    tracer = Tracer()
    tracer.attach(env)

    def proc():
        span = tracer.span("install", "compute-0-0", rack=0)
        yield env.timeout(5)
        span.end(outcome="ok")

    env.process(proc())
    env.run()
    (span,) = tracer.spans("install")
    assert span.t0 == 0.0
    assert span.t1 == 5.0
    assert span.duration == 5.0
    assert span.attrs == {"rack": 0, "outcome": "ok"}


def test_events_carry_monotonic_seq():
    env = Environment()
    tracer = Tracer()
    tracer.attach(env)
    tracer.event("a", "one")
    tracer.event("a", "two")
    tracer.event("b", "three")
    seqs = [r["seq"] for r in tracer.iter_records()]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == 3
    assert [e["name"] for e in tracer.events("a")] == ["one", "two"]


def test_record_span_is_retrospective():
    env = Environment()
    tracer = Tracer()
    tracer.attach(env)

    def proc():
        t0 = env.now
        yield env.timeout(3)
        tracer.record_span("install-phase", "packages", t0, host="c0")

    env.process(proc())
    env.run()
    (span,) = tracer.spans("install-phase")
    assert (span.t0, span.t1) == (0.0, 3.0)


def test_span_as_context_manager_ends_itself():
    env = Environment()
    tracer = Tracer()
    tracer.attach(env)

    def proc():
        with tracer.span("install", "compute-0-0", rack=0):
            yield env.timeout(7)

    env.process(proc())
    env.run()
    (span,) = tracer.spans("install")
    assert (span.t0, span.t1) == (0.0, 7.0)
    assert span.attrs["outcome"] == "ok"


def test_span_context_manager_records_error_outcome():
    env = Environment()
    tracer = Tracer()
    tracer.attach(env)
    with pytest.raises(RuntimeError):
        with tracer.span("install", "compute-0-0"):
            raise RuntimeError("boom")
    (span,) = tracer.spans("install")
    assert span.attrs["outcome"] == "error"


def test_null_tracer_span_context_manager_is_noop():
    with NULL_TRACER.span("install", "x") as span:
        pass
    assert NULL_TRACER.n_records == 0
    assert span is not None


# -- metrics ------------------------------------------------------------------

def test_counter_and_adjust():
    m = Metrics()
    m.inc("hits")
    m.inc("hits", 4)
    m.adjust("level", 2)
    m.adjust("level", -1)
    assert m.counters["hits"] == 5
    assert m.value("level") == 1


def test_gauge_time_weighted_mean_and_peak():
    env = Environment()
    tracer = Tracer()
    tracer.attach(env)
    m = tracer.metrics

    def proc():
        m.gauge("util", 0.5)
        yield env.timeout(10)
        m.gauge("util", 1.0)
        yield env.timeout(10)
        m.gauge("util", 0.0)
        yield env.timeout(20)

    env.process(proc())
    env.run()
    assert m.peak("util") == 1.0
    # 0.5 for 10s, 1.0 for 10s, 0.0 for 20s -> 15/40
    assert m.time_weighted_mean("util") == pytest.approx(0.375)


def test_totals_export_each_set_key_under_its_derived_name():
    m = Metrics()
    a = m.totals("http.", "/www")
    b = m.totals("http.", "/www")
    assert m.counters == {}
    a["rejected"] = 0
    assert m.counters == {"http.rejected/www": 0.0}  # set, though zero
    a["requests"] = 2
    b["requests"] = 3
    b["bytes"] = 10.0
    m.inc("http.requests/www")
    assert m.counters == {
        "http.rejected/www": 0.0,
        "http.requests/www": 6.0,  # equal names are summed
        "http.bytes/www": 10.0,
    }
    # int totals export as floats, like inc's own
    assert type(m.counter("http.requests/www")) is float
    assert m.counter("http.queue_timeouts/www") == 0.0  # never set


def test_null_metrics_totals_are_private():
    null = NullMetrics()
    owned = null.totals("http.", "/www")
    owned["requests"] = 1
    assert owned == {"requests": 1}
    assert null.totals("http.", "/www") == {}
    assert null.counters == {}


def test_gauge_dedupes_and_overwrites_same_instant():
    m = Metrics()  # unattached: now is pinned at 0.0
    m.gauge("g", 1.0)
    m.gauge("g", 1.0)  # no-op repeat is skipped
    assert m.samples("g") == [(0.0, 1.0)]
    m.gauge("g", 2.0)  # same-instant change overwrites in place
    assert m.samples("g") == [(0.0, 2.0)]


# -- export + schema ----------------------------------------------------------

def _small_trace():
    env = Environment()
    tracer = Tracer()
    tracer.attach(env)

    def proc():
        span = tracer.span("install", "c0")
        tracer.metrics.gauge("link.util/eth0", 0.6)
        yield env.timeout(2)
        tracer.metrics.inc("http.requests/frontend")
        tracer.metrics.gauge("link.util/eth0", 0.0)
        span.end(outcome="ok")

    env.process(proc())
    env.run()
    return tracer


def test_jsonl_export_validates_against_schema():
    tracer = _small_trace()
    text = to_jsonl(tracer)
    assert validate_trace_text(text) == []
    first = json.loads(text.splitlines()[0])
    assert first["type"] == "meta"
    assert first["clock"] == "simulated-seconds"


def test_corrupted_record_fails_validation():
    tracer = _small_trace()
    lines = to_jsonl(tracer).splitlines()
    bad = json.loads(lines[1])
    del bad["seq"]
    lines[1] = json.dumps(bad)
    assert validate_trace_lines(lines) != []
    # and a record of unknown type is rejected too
    lines[1] = json.dumps({"type": "mystery"})
    assert validate_trace_lines(lines) != []


def test_write_jsonl_roundtrip(tmp_path):
    tracer = _small_trace()
    path = tmp_path / "trace.jsonl"
    n = write_jsonl(tracer, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == n
    assert validate_trace_lines(lines) == []


# -- summary ------------------------------------------------------------------

def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert percentile(values, 0.50) == 5.0
    assert percentile(values, 0.95) == 10.0
    assert percentile(values, 1.0) == 10.0
    assert percentile([42.0], 0.50) == 42.0
    assert percentile([], 0.50) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 50)


def test_percentile_edge_cases_locked():
    """The exact contract for degenerate series, locked byte-for-byte.

    These are load-bearing for summary tables: a single install span
    must report itself as both its p50 and p95, an empty series renders
    0.0, and an out-of-range quantile always raises — the empty-list
    early return must never mask e.g. ``q=95`` passed for ``q=0.95``.
    """
    # zero samples: 0.0 at every valid quantile, including the ends
    for q in (0.0, 0.5, 0.95, 1.0):
        assert percentile([], q) == 0.0
    # one sample: that sample at every valid quantile
    for q in (0.0, 0.5, 0.95, 1.0):
        assert percentile([7.25], q) == 7.25
    # out-of-range q raises even when the series is empty
    for bad in (-0.01, 1.01, 95, -1):
        with pytest.raises(ValueError):
            percentile([], bad)
        with pytest.raises(ValueError):
            percentile([1.0], bad)


def test_summarize_reports_phases_and_peaks():
    tracer = _small_trace()
    summary = summarize(tracer)
    assert summary["spans"]["install"]["count"] == 1
    assert summary["peak_link_utilization"] == {"eth0": 0.6}
    assert summary["counters"]["http.requests/frontend"] == 1
    assert summary["open_spans"] == 0
