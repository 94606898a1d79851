"""The DHCP server: MAC-to-IP bindings driven by the cluster database.

"For configuring Ethernet devices on compute nodes, the Dynamic Host
Configuration Protocol (DHCP) is essential" (§5).  The Rocks dhcpd is
configured entirely from a database report (``/etc/dhcpd.conf``), and
unknown MACs broadcasting DHCPDISCOVER are what insert-ethers watches
syslog for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..netsim import Environment
from .base import Service, ServiceError
from .syslogd import Syslog

__all__ = ["DhcpServer", "DhcpBinding", "DhcpLease"]


@dataclass(frozen=True)
class DhcpBinding:
    """A static host entry in dhcpd.conf."""

    mac: str
    ip: str
    hostname: str


@dataclass(frozen=True)
class DhcpLease:
    """What a client gets back from DISCOVER/REQUEST."""

    mac: str
    ip: str
    hostname: str
    next_server: str  # install server for kickstart, paper §6.1
    granted_at: float


class DhcpServer(Service):
    """dhcpd with static bindings; logs every DISCOVER to syslog."""

    def __init__(
        self,
        env: Environment,
        syslog: Syslog,
        server_host: str,
        next_server: Optional[str] = None,
        name: str = "dhcpd",
    ):
        super().__init__(name)
        self.env = env
        self.syslog = syslog
        self.server_host = server_host
        self.next_server = next_server or server_host
        self._bindings: dict[str, DhcpBinding] = {}
        self.discover_count = 0
        self.unknown_macs_seen: list[str] = []

    # -- configuration -----------------------------------------------------
    def load_bindings(self, bindings: list[DhcpBinding], config_text: str = "") -> None:
        """Replace the binding table (a fresh dhcpd.conf from the DB)."""
        self._bindings = {b.mac: b for b in bindings}
        if config_text:
            self.configure(config_text)

    @property
    def n_bindings(self) -> int:
        return len(self._bindings)

    # -- protocol ----------------------------------------------------------
    def discover(self, mac: str) -> Optional[DhcpLease]:
        """Handle a client broadcast.

        Known MAC: returns a lease.  Unknown MAC: returns None, but the
        DHCPDISCOVER line lands in syslog — which is precisely the event
        insert-ethers integrates new nodes from.
        """
        self.require_running()
        self.discover_count += 1
        self.syslog.log(
            "dhcpd",
            self.server_host,
            f"DHCPDISCOVER from {mac} via eth0",
        )
        binding = self._bindings.get(mac)
        if binding is None:
            self.unknown_macs_seen.append(mac)
            self.syslog.log(
                "dhcpd",
                self.server_host,
                f"no free leases for unknown host {mac}",
            )
            return None
        lease = DhcpLease(
            mac=binding.mac,
            ip=binding.ip,
            hostname=binding.hostname,
            next_server=self.next_server,
            granted_at=self.env.now,
        )
        self.syslog.log(
            "dhcpd",
            self.server_host,
            f"DHCPACK on {binding.ip} to {mac} ({binding.hostname})",
        )
        return lease
