"""Ganglia-style distributed cluster monitoring, in-simulation.

Rocks shipped Matt Massie's Ganglia alongside the install machinery
because a cluster a tiny staff can manage needs a feedback loop: every
node runs a metric daemon (gmond), the frontend aggregates the
multicast stream (gmetad), round-robin databases bound the storage,
and dashboards answer "what is every node doing right now?".  This
package reproduces that architecture on the simulated cluster:

* :mod:`.agent` — per-node :class:`MetricAgent` publishing
  :class:`MetricPacket`\\ s over simulated UDP multicast, seeded jitter;
* :mod:`.aggregator` — the frontend :class:`MetricAggregator`: live
  view, staleness, one store record per packet;
* :mod:`.rrd` — :class:`RoundRobinStore`, fixed-size multi-resolution
  rings with min/mean/max cascade and byte-identical JSON export;
* :mod:`.alerts` — declarative :class:`AlertRule`\\ s edge-detected by
  an :class:`AlertEngine` into typed, traced alerts;
* :mod:`.dashboard` — ``cluster-top`` text view and a Ganglia-flavored
  XML dump;
* :mod:`.stack` — :func:`enable_cluster_monitoring`, the one-call
  wiring used by the fault/chaos driver and the ``repro monitor`` CLI.

Monitoring is opt-in and purely observational: it reads machine and
service state, never mutates it, so a monitored run's simulated
timeline is bit-identical to an unmonitored one.
"""

from .agent import GMOND_MULTICAST, MetricAgent, MetricPacket
from .aggregator import MetricAggregator
from .alerts import (
    Alert,
    AlertEngine,
    AlertRule,
    InstallStuckRule,
    LinkSaturationRule,
    NodeDownRule,
    ServiceDownRule,
    ShedRateRule,
    default_rules,
)
from .dashboard import render_cluster_top, to_ganglia_xml
from .rrd import (
    DEFAULT_RESOLUTIONS,
    Resolution,
    RoundRobinSeries,
    RoundRobinStore,
)
from .stack import (
    MonitoringOptions,
    MonitoringStack,
    enable_cluster_monitoring,
    frontend_sampler,
)

__all__ = [
    "GMOND_MULTICAST",
    "MetricAgent",
    "MetricPacket",
    "MetricAggregator",
    "Alert",
    "AlertEngine",
    "AlertRule",
    "NodeDownRule",
    "ServiceDownRule",
    "InstallStuckRule",
    "ShedRateRule",
    "LinkSaturationRule",
    "default_rules",
    "render_cluster_top",
    "to_ganglia_xml",
    "Resolution",
    "RoundRobinSeries",
    "RoundRobinStore",
    "DEFAULT_RESOLUTIONS",
    "MonitoringOptions",
    "MonitoringStack",
    "enable_cluster_monitoring",
    "frontend_sampler",
]
