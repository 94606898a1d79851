"""The Rocks cluster configuration database and its report generators."""

from .clusterdb import ClusterDatabase, DatabaseError, NodeRow
from .journal import DatabaseJournal, JournalError
from .reports import (
    GeneratedConfigs,
    dhcp_bindings,
    generate_configs,
    report_dhcpd,
    report_hosts,
    report_pbs_nodes,
)
from .schema import DEFAULT_APPLIANCES, DEFAULT_MEMBERSHIPS, SCHEMA

__all__ = [
    "ClusterDatabase",
    "DatabaseError",
    "DatabaseJournal",
    "JournalError",
    "NodeRow",
    "GeneratedConfigs",
    "dhcp_bindings",
    "generate_configs",
    "report_dhcpd",
    "report_hosts",
    "report_pbs_nodes",
    "DEFAULT_APPLIANCES",
    "DEFAULT_MEMBERSHIPS",
    "SCHEMA",
]
