"""Tests for the alert rules and the edge-detecting engine."""

import pytest

from repro.monitoring import (
    AlertEngine,
    InstallStuckRule,
    LinkSaturationRule,
    MetricPacket,
    NodeDownRule,
    ServiceDownRule,
    ShedRateRule,
    default_rules,
)
from repro.netsim import Environment
from repro.telemetry import Tracer


def packet(host, t, metrics=(), labels=(), seq=0):
    return MetricPacket(
        host=host,
        addr=host,
        t=t,
        seq=seq,
        metrics=dict(metrics),
        labels=dict(labels),
    )


class FakeAggregator:
    """Just enough aggregator surface for rule/engine unit tests."""

    def __init__(self, env, stale_after=45.0):
        self.env = env
        self.stale_after = stale_after
        self._last = {}
        self._expected = []

    def expect(self, host):
        self._expected.append(host)

    def feed(self, pkt):
        self._last[pkt.host] = pkt

    def expected_hosts(self):
        return list(self._expected)

    def snapshot(self):
        return dict(self._last)

    def age(self, host):
        pkt = self._last.get(host)
        return float("inf") if pkt is None else self.env.now - pkt.t


@pytest.fixture
def agg():
    return FakeAggregator(Environment())


def test_node_down_rule_stale_and_never(agg):
    agg.expect("n1")
    agg.expect("n2")
    agg.env.run(until=100.0)
    agg.feed(packet("n1", 90.0))
    rule = NodeDownRule()
    assert rule.check(agg, 100.0) == {
        "n2": ("never heard a heartbeat", -1.0)
    }
    agg.env.run(until=200.0)
    conditions = rule.check(agg, 200.0)
    assert conditions["n1"] == ("no heartbeat for 110s", 110.0)
    assert conditions["n2"][1] == -1.0  # inf encoded JSON-safe


def test_service_down_rule_reads_svc_gauges(agg):
    agg.feed(packet("fe", 10.0, metrics=[("svc.dhcp", 1.0), ("svc.nfs", 0.0)]))
    conditions = ServiceDownRule().check(agg, 10.0)
    assert conditions == {"fe/nfs": ("service nfs is not running", 0.0)}


def test_service_down_rule_raises_services_in_name_order(agg):
    agg.feed(packet("fe", 10.0, metrics=[
        ("svc.nfs", 0.0), ("load", 0.0), ("svc.dhcp", 0.0), ("svc.x", 1.0)]))
    assert list(ServiceDownRule().check(agg, 10.0)) == ["fe/dhcp", "fe/nfs"]


def test_install_stuck_rule_needs_frozen_progress(agg):
    rule = InstallStuckRule(threshold=100.0)

    def installing(t, done):
        return packet(
            "n1", t,
            metrics=[("install.done_pkgs", done)],
            labels=[("state", "installing"), ("phase", "packages")],
        )

    agg.feed(installing(0.0, 10.0))
    assert rule.check(agg, 0.0) == {}
    # progress advanced: the clock resets
    agg.feed(installing(50.0, 20.0))
    assert rule.check(agg, 120.0) == {}
    # frozen at the same (phase, done) pair past the threshold
    agg.feed(installing(130.0, 20.0))
    conditions = rule.check(agg, 260.0)
    assert "n1" in conditions
    assert "packages" in conditions["n1"][0]
    # leaving the installing state clears the tracking
    agg.feed(packet("n1", 300.0, labels=[("state", "up")]))
    assert rule.check(agg, 300.0) == {}
    assert rule._since == {}


def test_shed_rate_rule_fires_on_window_delta(agg):
    rule = ShedRateRule(min_sheds=5.0)
    agg.feed(packet("fe", 0.0, metrics=[("http.rejected", 2.0)]))
    assert rule.check(agg, 0.0) == {}  # 2 this window, below floor
    agg.feed(packet("fe", 15.0, metrics=[("http.rejected", 9.0)]))
    conditions = rule.check(agg, 15.0)
    assert conditions["fe"][1] == 7.0
    # flat total: no new sheds, condition clears
    agg.feed(packet("fe", 30.0, metrics=[("http.rejected", 9.0)]))
    assert rule.check(agg, 30.0) == {}


def test_link_saturation_needs_a_sustained_streak(agg):
    rule = LinkSaturationRule(threshold=0.98, sustain=3)
    hot = [("net.tx_util", 1.0), ("net.rx_util", 0.2)]
    for i in range(2):
        agg.feed(packet("fe", float(i)))
        agg.feed(packet("fe", float(i), metrics=hot))
        assert rule.check(agg, float(i)) == {}
    agg.feed(packet("fe", 2.0, metrics=hot))
    conditions = rule.check(agg, 2.0)
    assert conditions["fe"][1] == 1.0
    # one cool sample resets the streak
    agg.feed(packet("fe", 3.0, metrics=[("net.tx_util", 0.5)]))
    assert rule.check(agg, 3.0) == {}
    assert rule._streak["fe"] == 0


def test_engine_edge_detects_fire_and_clear(agg):
    agg.expect("n1")
    engine = AlertEngine((NodeDownRule(),))
    agg.env.run(until=50.0)
    engine.evaluate(agg, 50.0)
    engine.evaluate(agg, 60.0)  # still down: no duplicate page
    assert len(engine.alerts) == 1
    assert engine.active()[0].host == "n1"
    agg.feed(packet("n1", 60.0))
    engine.evaluate(agg, 61.0)
    assert engine.active() == []
    assert len(engine.cleared) == 1
    assert "cleared after 11s" in engine.cleared[0].message
    assert engine.kinds_fired() == ["node-down"]


def test_engine_emits_tracer_events_and_counters(agg):
    tracer = Tracer().attach(agg.env)
    agg.expect("n1")
    engine = AlertEngine((NodeDownRule(),))
    engine.evaluate(agg, 0.0)
    agg.feed(packet("n1", 0.0))
    engine.evaluate(agg, 1.0)
    assert len(tracer.events("alert")) == 1
    assert len(tracer.events("alert-clear")) == 1
    assert tracer.metrics.counter("alerts.fired/node-down") == 1


def test_engine_silent_under_null_tracer(agg):
    agg.expect("n1")
    engine = AlertEngine((NodeDownRule(),))
    engine.evaluate(agg, 0.0)  # must not blow up with NULL_TRACER
    assert len(engine.alerts) == 1
    assert agg.env.tracer.n_records == 0


def test_signature_and_records_are_deterministic(agg):
    agg.expect("n1")
    engine = AlertEngine((NodeDownRule(),))
    engine.evaluate(agg, 0.0)
    agg.feed(packet("n1", 0.0))
    engine.evaluate(agg, 1.0)
    sig = engine.signature()
    assert "CRIT node-down" in sig and "CLEAR node-down" in sig
    records = engine.to_records()
    assert [r["status"] for r in records] == ["fired", "cleared"]
    assert records[0]["value"] == -1.0


def test_default_rules_cover_the_documented_kinds():
    kinds = {rule.kind for rule in default_rules()}
    assert kinds == {
        "node-down", "service-down", "install-stuck",
        "http-shed", "link-saturated",
    }
