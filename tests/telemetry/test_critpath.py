"""Critical-path analysis: DAG reconstruction, walk math, attribution."""

import pytest

from repro import build_cluster
from repro.telemetry import Tracer
from repro.telemetry.critpath import (
    attribute,
    blocked_stats,
    build_dag,
    classify,
    critical_path,
    dag_from_tracer,
    pick_root,
    render_report,
)


def span(span_id, parent_id, kind, name, t0, t1, trace_id=None, **attrs):
    """A decoded span record, shaped like the JSONL export."""
    return {
        "type": "span",
        "span_id": span_id,
        "seq": span_id,
        "parent_id": parent_id,
        "trace_id": trace_id if trace_id is not None else (
            span_id if parent_id is None else 1
        ),
        "kind": kind,
        "name": name,
        "t0": float(t0),
        "t1": None if t1 is None else float(t1),
        "attrs": attrs,
    }


# -- build_dag ----------------------------------------------------------------


def test_build_dag_links_children_in_time_order():
    dag = build_dag([
        span(1, None, "reinstall", "x2", 0, 100),
        span(3, 1, "install", "b", 20, 90),
        span(2, 1, "install", "a", 10, 50),
    ])
    root = dag.node(1)
    assert [c.span_id for c in root.children] == [2, 3]
    assert dag.roots == [root]
    assert dag.orphans == [] and dag.open_spans == []


def test_build_dag_promotes_orphans_to_roots():
    """A child whose parent never made the export still gets analysed."""
    dag = build_dag([
        span(5, 99, "install", "a", 10, 50),  # parent 99 missing
        span(6, None, "reinstall", "x1", 0, 60),
    ])
    orphan = dag.node(5)
    assert orphan.orphan is True
    assert orphan in dag.roots
    assert dag.orphans == [orphan]
    assert len(dag.roots) == 2


def test_build_dag_clamps_open_spans_to_trace_end():
    dag = build_dag([
        span(1, None, "reinstall", "x1", 0, None),   # left open
        span(2, 1, "install", "a", 10, 80),
        {"type": "event", "seq": 3, "t": 95.0, "kind": "fault",
         "name": "outage", "attrs": {}},
    ])
    root = dag.node(1)
    assert root.is_open
    assert dag.open_spans == [root]
    assert dag.end_time == 95.0  # events push the clamp point too
    assert root.end_or(dag.end_time) == 95.0


def test_build_dag_multi_root_forest():
    dag = build_dag([
        span(1, None, "exec", "x4", 0, 30),
        span(2, None, "storm", "x128", 0, 500),
        span(3, 2, "shoot", "n1", 5, 400),
    ])
    assert [r.span_id for r in dag.roots] == [1, 2]
    assert dag.node(2).children == [dag.node(3)]


def test_build_dag_skips_non_span_records():
    dag = build_dag([
        {"type": "meta", "end_time": 10.0},
        {"type": "counter", "name": "x", "value": 1},
        span(1, None, "install", "a", 0, 5),
    ])
    assert set(dag.nodes) == {1}
    assert dag.end_time == 10.0


# -- critical_path ------------------------------------------------------------


def test_critical_path_segments_tile_the_root_exactly():
    dag = build_dag([
        span(1, None, "reinstall", "x2", 0, 100),
        span(2, 1, "install", "a", 10, 60),
        span(3, 1, "install", "b", 30, 90),
    ])
    segments = critical_path(dag, dag.node(1))
    assert segments[0].t0 == 0.0 and segments[-1].t1 == 100.0
    for prev, nxt in zip(segments, segments[1:]):
        assert prev.t1 == nxt.t0  # no gaps, no overlaps
    assert sum(s.duration for s in segments) == pytest.approx(100.0)


def test_critical_path_latest_finishing_child_is_the_blocker():
    """At any instant the blocker is the child active then that finished
    last; time no child covers belongs to the parent itself."""
    dag = build_dag([
        span(1, None, "reinstall", "x2", 0, 100),
        span(2, 1, "install", "fast", 0, 40),
        span(3, 1, "install", "slow", 20, 95),
    ])
    segments = critical_path(dag, dag.node(1))
    by_window = {(s.t0, s.t1): s.node.span_id for s in segments}
    assert by_window[(20.0, 95.0)] == 3   # slow child gates 20..95
    assert by_window[(0.0, 20.0)] == 2    # fast child gates the prefix
    assert by_window[(95.0, 100.0)] == 1  # tail is root self-time


def test_critical_path_descends_into_grandchildren():
    dag = build_dag([
        span(1, None, "install", "a", 0, 50),
        span(2, 1, "install-phase", "packages", 0, 50),
        span(3, 2, "http", "/rpm", 10, 45, server="fe"),
    ])
    segments = critical_path(dag, dag.node(1))
    resources = [(s.t0, s.t1, s.resource) for s in segments]
    assert (10.0, 45.0, "http-service/fe") in resources
    assert (0.0, 10.0, "phase/packages") in resources
    assert (45.0, 50.0, "phase/packages") in resources


def test_critical_path_skips_children_outside_the_window():
    """A child that ends before the parent starts (clock skew, clamped
    opens) must not hijack the walk."""
    dag = build_dag([
        span(1, None, "reinstall", "x1", 50, 100),
        span(2, 1, "install", "early", 0, 40),  # entirely before the root
    ])
    segments = critical_path(dag, dag.node(1))
    assert len(segments) == 1
    assert segments[0].node.span_id == 1
    assert (segments[0].t0, segments[0].t1) == (50.0, 100.0)


# -- classify / attribute -----------------------------------------------------


def test_classify_resource_names():
    cases = [
        (span(1, 1, "http-queue", "/rpm", 0, 1, server="fe"),
         "frontend-queue/fe"),
        (span(2, 1, "flow", "f", 0, 1, bottleneck="eth0"), "link/eth0"),
        (span(3, 1, "retry-wait", "w", 0, 1), "retry-backoff"),
        (span(4, 1, "exec-retry", "w", 0, 1), "retry-backoff"),
        (span(5, 1, "dead-wait", "n", 0, 1), "dead-wait"),
        (span(6, 1, "install-phase", "packages", 0, 1), "phase/packages"),
        (span(7, 1, "campaign-node", "n", 0, 1), "node-boot"),
        (span(8, 1, "shoot", "n", 0, 1), "node-boot"),
        (span(9, None, "reinstall", "x", 0, 1), "self/reinstall"),
    ]
    for record, expected in cases:
        assert classify(build_dag([record]).node(record["span_id"])) == expected


def test_attribute_totals_largest_first():
    dag = build_dag([
        span(1, None, "reinstall", "x1", 0, 100),
        span(2, 1, "shoot", "a", 0, 30),
        span(3, 1, "shoot", "b", 30, 90),
    ])
    totals = attribute(critical_path(dag, dag.node(1)))
    assert totals == [
        ("node-boot", pytest.approx(90.0)),
        ("self/reinstall", pytest.approx(10.0)),
    ]


# -- blocked_stats ------------------------------------------------------------


def test_blocked_stats_percentiles_per_category():
    records = [span(1, None, "reinstall", "x", 0, 100)]
    records += [
        span(10 + i, 1, "http-queue", "/rpm", 0, d, server="fe")
        for i, d in enumerate([1, 2, 3, 4])
    ]
    records.append(span(20, 1, "dead-wait", "n", 0, 50))
    stats = blocked_stats(build_dag(records))
    assert list(stats) == ["queue", "dead-wait"]  # fixed category order
    assert stats["queue"]["count"] == 4
    assert stats["queue"]["p50"] == 2
    assert stats["queue"]["total"] == 10
    assert stats["dead-wait"]["p95"] == 50


# -- pick_root / render_report ------------------------------------------------


def test_pick_root_prefers_campaign_kinds_then_duration():
    dag = build_dag([
        span(1, None, "service", "longest", 0, 1000),
        span(2, None, "reinstall", "x1", 0, 100),
        span(3, None, "reinstall", "x2", 0, 200),
    ])
    assert pick_root(dag).span_id == 3  # preferred kind, then longest


def test_pick_root_empty_dag():
    assert pick_root(build_dag([])) is None


def test_render_report_bytes_locked():
    """The report is a byte-exact artifact: CI compares it to goldens."""
    dag = build_dag([
        span(1, None, "reinstall", "x1", 0, 100),
        span(2, 1, "shoot", "a", 0, 90),
        span(3, 2, "http-queue", "/rpm", 10, 30, server="fe"),
    ])
    report = render_report(dag, dag.node(1))
    assert report == (
        'critical path: reinstall "x1" — 100.0 s wall-to-wall\n'
        "     seconds   share  resource\n"
        "        70.0   70.0%  node-boot\n"
        "        20.0   20.0%  frontend-queue/fe\n"
        "        10.0   10.0%  self/reinstall\n"
        "attributed to named resources: 90.0% (10.0 s root self-time)\n"
        "blocked-time percentiles (all spans, seconds):\n"
        "  category     count       p50       p95       total\n"
        "  queue            1     20.00     20.00        20.0"
    )


def test_render_report_notes_open_and_orphan_spans():
    dag = build_dag([
        span(1, None, "reinstall", "x1", 0, None),
        span(2, 99, "install", "a", 10, 80),
    ])
    report = render_report(dag, dag.node(1))
    assert "(left open, clamped to trace end)" in report
    assert "open spans clamped to t=80.0s: 1" in report
    assert "orphan spans promoted to roots: 1" in report


def test_render_report_top_folds_the_tail():
    dag = build_dag([
        span(1, None, "reinstall", "x1", 0, 100),
        span(2, 1, "shoot", "a", 0, 40),
        span(3, 1, "http-queue", "q", 40, 70, server="fe"),
        span(4, 1, "dead-wait", "n", 70, 90),
    ])
    report = render_report(dag, dag.node(1), top=1)
    table = report.split("attributed")[0]
    assert "node-boot" in table       # the one shown row
    assert "(3 more)" in table        # folded tail with its total
    assert "frontend-queue/fe" not in table


# -- end to end ---------------------------------------------------------------


def test_explain_real_reinstall_attributes_nearly_everything():
    """The acceptance bar: ≥95% of a traced reinstall lands on named
    resources (phases, node-boot, links, queues), not root self-time."""
    tracer = Tracer()
    sim = build_cluster(n_compute=4, tracer=tracer)
    sim.integrate_all()
    sim.reinstall_all()
    dag = dag_from_tracer(tracer)
    root = pick_root(dag)
    assert root.kind == "reinstall"
    segments = critical_path(dag, root)
    total = root.t1 - root.t0
    named = sum(
        s.duration for s in segments if not s.resource.startswith("self/")
    )
    assert named / total >= 0.95
    report = render_report(dag, root)
    assert "attributed to named resources:" in report


def test_explain_tracer_empty():
    assert pick_root(dag_from_tracer(Tracer())) is None


def test_committed_explain_golden_matches_fresh_run():
    """The golden that `repro explain --nodes 8` must reproduce (see
    tests/core/test_cli.py) tracks the code: a fresh seeded 8-node
    reinstall renders the committed report exactly."""
    import pathlib

    tracer = Tracer()
    sim = build_cluster(n_compute=8, tracer=tracer)
    sim.integrate_all()
    sim.reinstall_all()
    golden = (
        pathlib.Path(__file__).parent / "golden" / "explain_reinstall_8.txt"
    ).read_text(encoding="utf-8")
    dag = dag_from_tracer(tracer)
    assert render_report(dag, pick_root(dag)) + "\n" == golden
