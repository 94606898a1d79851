"""Database report generators.

§6.4: "From these tables we generate the /etc/hosts, /etc/dhcpd.conf,
and PBS configuration files."  Each report is a pure function of the
database; insert-ethers regenerates them and restarts the respective
service every time a node is added, through :func:`generate_configs`,
which reads the nodes table once for all of them.
"""

from __future__ import annotations

from typing import NamedTuple

from ...services import DhcpBinding
from .clusterdb import ClusterDatabase, NodeRow

__all__ = [
    "report_hosts",
    "report_dhcpd",
    "report_pbs_nodes",
    "dhcp_bindings",
    "GeneratedConfigs",
    "generate_configs",
]


def report_hosts(db: ClusterDatabase, domain: str = "local") -> str:
    """Generate /etc/hosts from the nodes table."""
    return _hosts(db.nodes(), domain)


def report_dhcpd(db: ClusterDatabase, next_server: str = "frontend-0") -> str:
    """Generate /etc/dhcpd.conf with one static host stanza per MAC."""
    return _dhcpd(db.nodes(), next_server)


def report_pbs_nodes(db: ClusterDatabase) -> str:
    """Generate the PBS server's nodes file: compute members only."""
    lines = [f"{n.name} np={n.cpus}" for n in db.compute_nodes()]
    return "\n".join(lines) + ("\n" if lines else "")


def dhcp_bindings(db: ClusterDatabase) -> list[DhcpBinding]:
    """The dhcpd.conf content as structured bindings for the daemon."""
    return _bindings(db.nodes())


class GeneratedConfigs(NamedTuple):
    """What insert-ethers regenerates, from one read of the nodes table."""

    #: :func:`dhcp_bindings`
    dhcp_bindings: list[DhcpBinding]
    #: :func:`report_dhcpd`, default next server
    dhcpd_conf: str
    #: :func:`report_hosts`, default domain
    hosts: str
    #: the compute members :func:`report_pbs_nodes` lists, in its order
    compute_nodes: list[NodeRow]


def generate_configs(db: ClusterDatabase) -> GeneratedConfigs:
    """Every insert-ethers output, the nodes table read once.

    The compute members are the nodes whose membership is marked
    compute, in id order: the rows :meth:`ClusterDatabase.compute_nodes`
    joins for, filtered from the same read.
    """
    nodes = db.nodes()
    compute = {mid for mid, _name, _app, flag in db.memberships() if flag == "yes"}
    return GeneratedConfigs(
        dhcp_bindings=_bindings(nodes),
        dhcpd_conf=_dhcpd(nodes, "frontend-0"),
        hosts=_hosts(nodes, "local"),
        compute_nodes=[n for n in nodes if n.membership in compute],
    )


def _hosts(nodes: list[NodeRow], domain: str) -> str:
    lines = [
        "# /etc/hosts -- generated by report_hosts; do not edit by hand",
        "127.0.0.1\tlocalhost.localdomain localhost",
    ]
    for node in nodes:
        if node.ip is None:
            continue
        lines.append(f"{node.ip}\t{node.name}.{domain} {node.name}")
    return "\n".join(lines) + "\n"


def _dhcpd(nodes: list[NodeRow], next_server: str) -> str:
    lines = [
        "# /etc/dhcpd.conf -- generated by report_dhcpd; do not edit by hand",
        "ddns-update-style none;",
        "subnet 10.0.0.0 netmask 255.0.0.0 {",
        f'\tnext-server {next_server};',
    ]
    for node in nodes:
        if node.mac is None or node.ip is None:
            continue
        lines.extend(
            [
                f"\thost {node.name} {{",
                f"\t\thardware ethernet {node.mac};",
                f"\t\tfixed-address {node.ip};",
                f'\t\toption host-name "{node.name}";',
                "\t}",
            ]
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _bindings(nodes: list[NodeRow]) -> list[DhcpBinding]:
    return [
        DhcpBinding(mac=n.mac, ip=n.ip, hostname=n.name)
        for n in nodes
        if n.mac is not None and n.ip is not None
    ]
