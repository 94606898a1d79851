"""The NPACI Rocks cluster tools (§6.3-6.4)."""

from .campaign import (
    CampaignReport,
    NodeCampaignReport,
    NodeOutcome,
    ReinstallCampaign,
)
from .cluster_fork import (
    cluster_fork,
    cluster_kill,
    frontend_groups,
    targets_from_query,
)
from .crash_cart import CrashCart, NoVideoSignal
from .ekv import EKV_PORT, EkvConsole, EkvUnreachable
from .insert_ethers import APPLIANCE_BASENAMES, InsertEthers
from .scalable_cmds import cluster_lsmod, cluster_ps, cluster_rpm_q, cluster_uptime
from .shoot_node import ShootReport, shoot_node, shoot_nodes
from .upgrade import QueuedReinstallCampaign, queue_cluster_reinstall

__all__ = [
    "CampaignReport",
    "NodeCampaignReport",
    "NodeOutcome",
    "ReinstallCampaign",
    "cluster_fork",
    "cluster_kill",
    "frontend_groups",
    "targets_from_query",
    "CrashCart",
    "NoVideoSignal",
    "EKV_PORT",
    "EkvConsole",
    "EkvUnreachable",
    "APPLIANCE_BASENAMES",
    "InsertEthers",
    "cluster_lsmod",
    "cluster_ps",
    "cluster_rpm_q",
    "cluster_uptime",
    "ShootReport",
    "shoot_node",
    "shoot_nodes",
    "QueuedReinstallCampaign",
    "queue_cluster_reinstall",
]
