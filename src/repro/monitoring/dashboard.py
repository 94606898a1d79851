"""Operator views over the aggregator: cluster-top and the XML dump.

``render_cluster_top`` is the terminal dashboard — one line per host
with state, install phase, progress, load, and NIC utilization, plus
the active alerts — the answer to "what is every node doing right
now?".  ``to_ganglia_xml`` dumps the same view in the spirit of
Ganglia's wire format (``<GANGLIA_XML><CLUSTER><HOST><METRIC .../>``),
the interchange form a real gmetad serves on its TCP port.
"""

from __future__ import annotations

from typing import Optional
from xml.sax.saxutils import quoteattr

from .aggregator import MetricAggregator

__all__ = ["render_cluster_top", "to_ganglia_xml"]


def _host_row(agg: MetricAggregator, host: str) -> str:
    packet = agg.last_packet(host)
    if packet is None:
        return (f"{host:<16} {'no-contact':<12} {'-':<9} "
                f"{'-':>9} {'-':>5} {'-':>5} {'-':>4} {'-':>4}")
    state = packet.label("state")
    if agg.is_stale(host):
        state = f"{state}?"  # last known, but the host has gone quiet
    phase = packet.label("phase") or "-"
    if packet.has_metric("install.total_pkgs"):
        done = packet.metric("install.done_pkgs")
        total = packet.metric("install.total_pkgs")
        progress = f"{done:.0f}/{total:.0f}"
    else:
        progress = "-"
    return (
        f"{host:<16} {state:<12} {phase:<9} {progress:>9} "
        f"{packet.metric('load'):>5.0f} {packet.metric('packages'):>5.0f} "
        f"{100 * packet.metric('net.tx_util'):>4.0f} "
        f"{100 * packet.metric('net.rx_util'):>4.0f}"
    )


def render_cluster_top(
    agg: MetricAggregator,
    engine=None,
    cluster_name: str = "rocks",
    max_alerts: Optional[int] = 10,
) -> str:
    """The live text dashboard: one row per host, active alerts below."""
    hosts = agg.known_hosts()
    up = sum(1 for h in hosts if not agg.is_stale(h))
    header = (
        f"cluster-top — {cluster_name} at t={agg.env.now:.0f}s: "
        f"{up}/{len(hosts)} hosts reporting, "
        f"{agg.packets_received} packets"
    )
    lines = [header]
    lines.append(
        f"{'host':<16} {'state':<12} {'phase':<9} {'progress':>9} "
        f"{'load':>5} {'pkgs':>5} {'tx%':>4} {'rx%':>4}"
    )
    for host in sorted(hosts):
        lines.append(_host_row(agg, host))
    if engine is not None:
        active = engine.active()
        if active:
            lines.append(f"active alerts ({len(active)}):")
            shown = active if max_alerts is None else active[:max_alerts]
            for alert in shown:
                lines.append("  " + alert.render())
            if max_alerts is not None and len(active) > max_alerts:
                lines.append(f"  ... and {len(active) - max_alerts} more")
        else:
            lines.append("no active alerts")
    return "\n".join(lines)


def to_ganglia_xml(
    agg: MetricAggregator, cluster_name: str = "rocks"
) -> str:
    """The cluster state in the spirit of Ganglia's XML wire format."""
    now = agg.env.now
    lines = [
        '<?xml version="1.0" encoding="ISO-8859-1"?>',
        '<GANGLIA_XML VERSION="2.5.7" SOURCE="repro-gmetad">',
        f'<CLUSTER NAME={quoteattr(cluster_name)} LOCALTIME="{now:.0f}" '
        f'OWNER="repro" URL="">',
    ]
    for host in sorted(agg.known_hosts()):
        packet = agg.last_packet(host)
        if packet is None:
            lines.append(
                f'<HOST NAME={quoteattr(host)} IP="" REPORTED="never" TN="inf"/>'
            )
            continue
        lines.append(
            f'<HOST NAME={quoteattr(host)} IP={quoteattr(packet.addr)} '
            f'REPORTED="{packet.t:.0f}" TN="{now - packet.t:.0f}">'
        )
        for name, value in packet.metrics:
            lines.append(
                f'<METRIC NAME={quoteattr(name)} VAL="{value:g}" '
                f'TYPE="float" UNITS="" TN="0" SLOPE="both"/>'
            )
        for name, value in packet.labels:
            lines.append(
                f'<METRIC NAME={quoteattr(name)} VAL={quoteattr(value)} '
                f'TYPE="string" UNITS="" TN="0" SLOPE="zero"/>'
            )
        lines.append("</HOST>")
    lines.append("</CLUSTER>")
    lines.append("</GANGLIA_XML>")
    return "\n".join(lines) + "\n"
