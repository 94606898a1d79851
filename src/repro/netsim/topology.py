"""Network topology: hosts, NIC links, and path resolution.

The Rocks architecture (Figure 1 of the paper) is deliberately minimal:
every machine hangs off one Ethernet switch via its integrated NIC; there
is no dedicated management network.  We model exactly that — each host
gets a full-duplex access link (separate transmit and receive sides) and
the switch backplane is unconstrained, so the only contention points are
host NICs.  That matches the paper's analysis, where the install server's
100 Mbit uplink is the bottleneck.
"""

from __future__ import annotations

from typing import Optional

from .engine import Environment
from .flows import Flow, FlowNetwork, Link

__all__ = ["Host", "Network", "MBIT", "MBYTE", "FAST_ETHERNET", "GIGABIT_ETHERNET"]

#: One megabit per second, expressed in bytes/second.
MBIT = 1_000_000 / 8
#: One megabyte (decimal, as the paper uses MB/sec) in bytes.
MBYTE = 1_000_000
#: Common NIC speeds, bytes/second.
FAST_ETHERNET = 100 * MBIT
GIGABIT_ETHERNET = 1000 * MBIT


class Host:
    """An attached machine: a name plus its duplex access link."""

    __slots__ = ("name", "tx", "rx", "up")

    def __init__(self, name: str, speed: float):
        self.name = name
        self.tx = Link(f"{name}.tx", speed)
        self.rx = Link(f"{name}.rx", speed)
        self.up = True

    @property
    def speed(self) -> float:
        return float(self.tx.capacity or 0.0)

    def set_speed(self, speed: float) -> None:
        """Swap the NIC for a faster one (e.g. Fast Ethernet -> Gigabit)."""
        if speed <= 0:
            raise ValueError("link speed must be positive")
        self.tx.capacity = speed
        self.rx.capacity = speed

    def __repr__(self) -> str:  # pragma: no cover
        return f"Host({self.name!r}, {self.speed / MBIT:.0f}Mbit, up={self.up})"


class HostDown(Exception):
    """Raised when a transfer is attempted to or from a detached host."""


class Network:
    """A single switched Ethernet segment with fluid-flow transfers."""

    def __init__(self, env: Environment):
        self.env = env
        self.flows = FlowNetwork(env)
        self._hosts: dict[str, Host] = {}
        self._multicast_groups: dict[str, "MulticastGroup"] = {}

    def multicast(self, address: str) -> "MulticastGroup":
        """The segment's multicast group for ``address`` (created once).

        Every caller asking for the same address shares one group, so a
        publisher reaches all subscribers that joined via any reference.
        """
        group = self._multicast_groups.get(address)
        if group is None:
            from .multicast import MulticastGroup

            group = MulticastGroup(self, address)
            self._multicast_groups[address] = group
        return group

    def attach(self, name: str, speed: float = FAST_ETHERNET) -> Host:
        """Attach a host to the segment; names must be unique."""
        if name in self._hosts:
            raise ValueError(f"host {name!r} already attached")
        host = Host(name, speed)
        self._hosts[name] = host
        return host

    def _abort_host_flows(self, host: Host) -> None:
        """Cancel every flow crossing either side of a host's NIC.

        Uses the per-link flow index rather than scanning all flows —
        a whole-site power failure cancels per-host in O(host's flows),
        not O(cluster's flows) per host.  A loopback flow appears on
        both sides; the dict dedupes it so it is cancelled once.
        """
        doomed = list(
            dict.fromkeys(
                self.flows.flows_through(host.tx) + self.flows.flows_through(host.rx)
            )
        )
        # Cancel in flow-start order, matching the legacy global scan, so
        # the abort events fire in the same deterministic sequence.
        doomed.sort(key=lambda flow: flow._seq)
        for flow in doomed:
            flow.cancel()

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise KeyError(f"no host named {name!r} on this network") from None

    def has_host(self, name: str) -> bool:
        return name in self._hosts

    def set_host_speed(self, name: str, speed: float) -> None:
        """Change a host's NIC speed, rebalancing in-flight transfers.

        This is the link-degradation fault: unlike :meth:`Host.set_speed`
        (a pre-run configuration), it is safe while flows are active.
        Only the components crossing this host's NIC are recomputed.
        """
        host = self.host(name)
        host.set_speed(speed)
        self.flows.recompute([host.tx, host.rx])

    def set_host_up(self, name: str, up: bool) -> None:
        """Mark a host's link state; down hosts cannot move traffic."""
        host = self.host(name)
        host.up = up
        if not up:
            self._abort_host_flows(host)

    def reachable(self, src: str, dst: str) -> bool:
        """True when both endpoints are attached and link-up."""
        return (
            src in self._hosts
            and dst in self._hosts
            and self._hosts[src].up
            and self._hosts[dst].up
        )

    def path(self, src: str, dst: str) -> tuple[Link, ...]:
        """Links a byte crosses from ``src`` to ``dst``: sender tx, receiver rx."""
        hosts = self._hosts
        if src not in hosts or dst not in hosts:
            self.host(dst if src in hosts else src)  # raises the KeyError
        a, b = hosts[src], hosts[dst]
        if not a.up:
            raise HostDown(src)
        if not b.up:
            raise HostDown(dst)
        return (a.tx, b.rx)

    def route(self, src: str, dst: str) -> Optional[tuple[Link, ...]]:
        """:meth:`path`, or ``None`` where :meth:`reachable` is false."""
        hosts = self._hosts
        if src in hosts and dst in hosts:
            a, b = hosts[src], hosts[dst]
            if a.up and b.up:
                return (a.tx, b.rx)
        return None

    def send(
        self,
        src: str,
        dst: str,
        nbytes: float,
        max_rate: Optional[float] = None,
        label: str = "",
    ) -> Flow:
        """Start a transfer from ``src`` to ``dst``; wait on ``.done``."""
        return self.flows.transfer(
            self.path(src, dst),
            nbytes,
            max_rate=max_rate,
            label=label or f"{src}->{dst}",
        )
