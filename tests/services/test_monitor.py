"""Cluster liveness checks, answered by the gmetad aggregator.

The frontend's :class:`~repro.monitoring.MetricAggregator` is the one
liveness view: which hosts report, which went quiet, and which were
expected but never reported at all.
"""

import pytest

from repro import build_cluster
from repro.monitoring import (
    MetricAggregator,
    MonitoringOptions,
    enable_cluster_monitoring,
)
from repro.monitoring.dashboard import render_cluster_top
from repro.netsim import Environment
from repro.netsim.topology import Network


@pytest.fixture
def monitored():
    sim = build_cluster(n_compute=3)
    sim.integrate_all()
    stack = enable_cluster_monitoring(
        sim.frontend, sim.nodes, MonitoringOptions(interval=10)
    )
    sim.env.run(until=sim.env.now + 30)
    return sim, stack


def test_heartbeats_flow_from_up_nodes(monitored):
    sim, stack = monitored
    snap = stack.aggregator.snapshot()
    assert set(snap) == {"frontend-0", "compute-0-0", "compute-0-1", "compute-0-2"}
    assert stack.aggregator.packets_received >= 8
    for pkt in snap.values():
        assert pkt.labels["state"] == "up"
        assert pkt.metrics["packages"] > 100


def test_report_is_tabular(monitored):
    _, stack = monitored
    report = stack.render_top()
    assert report.splitlines()[1].startswith("host")
    assert "compute-0-0" in report


def test_stopped_monitor_drops_heartbeats(monitored):
    sim, stack = monitored
    agg = stack.aggregator
    agg.stop()
    before = agg.packets_received
    sim.env.run(until=sim.env.now + 50)
    assert agg.packets_received == before


def test_expected_host_that_never_heartbeats_reports_down():
    """A host that dies before its first report must not be invisible."""
    env = Environment()
    network = Network(env)
    network.attach("fe")
    agg = MetricAggregator(env, network.multicast("g"), "fe")
    agg.expect("compute-0-9")
    env.run(until=100.0)
    assert agg.down_hosts() == ["compute-0-9"]
    assert "compute-0-9" not in agg.up_hosts()
    report = render_cluster_top(agg)
    assert "compute-0-9" in report and "no-contact" in report


def test_enable_monitoring_expects_every_machine():
    """A node down from the start appears in down_hosts despite zero reports."""
    sim = build_cluster(n_compute=2)
    sim.integrate_all()
    sim.nodes[0].power_off()
    stack = enable_cluster_monitoring(
        sim.frontend, sim.nodes, MonitoringOptions(interval=10)
    )
    sim.env.run(until=sim.env.now + 40)
    agg = stack.aggregator
    assert agg.packets_received > 0  # the live machines are reporting
    assert sim.nodes[0].hostid in agg.down_hosts()
    assert agg.snapshot().get(sim.nodes[0].hostid) is None
