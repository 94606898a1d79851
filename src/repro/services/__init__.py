"""Simulated cluster services: syslog, DHCP, HTTP install server, NIS, NFS."""

from .base import Faultable, Service, ServiceError, ServiceState
from .dhcpd import DhcpBinding, DhcpLease, DhcpServer
from .httpd import KICKSTART_CGI_PATH, InstallReplicaSet, InstallServer, rpms_prefix
from .nfs import NfsMount, NfsServer, StaleFileHandle
from .nis import NisDomain, UserAccount
from .syslogd import Syslog, SyslogMessage

__all__ = [
    "Faultable",
    "Service",
    "ServiceError",
    "ServiceState",
    "DhcpBinding",
    "DhcpLease",
    "DhcpServer",
    "KICKSTART_CGI_PATH",
    "InstallReplicaSet",
    "InstallServer",
    "rpms_prefix",
    "NfsMount",
    "NfsServer",
    "StaleFileHandle",
    "NisDomain",
    "UserAccount",
    "Syslog",
    "SyslogMessage",
]
