"""Best-effort UDP multicast on a switched Ethernet segment.

Ganglia's gmond publishes metric packets to a well-known multicast
address and every listener on the segment receives them — no
connections, no acknowledgements, no retransmits.  This module models
exactly that on the :class:`~repro.netsim.topology.Network`: a
:class:`MulticastGroup` is a named address with a subscriber list, and
``send()`` delivers a datagram to every subscriber whose host link is
up, silently dropping the rest (that *is* UDP's contract, and it is
what makes staleness detection on the receiver meaningful).

Delivery is synchronous and insertion-ordered: a 100-byte heartbeat
crosses a switched LAN in microseconds, far below the one-second
resolution anything in this simulation cares about, so modelling the
datagram as a timed flow would buy nothing but event-queue pressure.
Determinism falls out of the ordering — subscribers are an
insertion-ordered dict, never a hash set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # avoid a cycle: topology imports this module lazily
    from .topology import Network

__all__ = ["MulticastGroup", "Datagram"]

#: payload accounting granularity: a compact metric packet on the wire
DEFAULT_DATAGRAM_BYTES = 128.0

#: Receiver callback: fn(src_host, payload, sim_time).
Receiver = Callable[[str, Any, float], None]


class Datagram:
    """One delivered multicast packet (what a receiver callback gets)."""

    __slots__ = ("src", "payload", "t")

    def __init__(self, src: str, payload: Any, t: float):
        self.src = src
        self.payload = payload
        self.t = t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Datagram(from={self.src!r}, t={self.t:.1f})"


class MulticastGroup:
    """A multicast address on one network segment, with its listeners.

    Obtain one via :meth:`Network.multicast`; the network caches groups
    by address so every publisher and subscriber shares the same one.
    """

    def __init__(self, network: "Network", address: str):
        self.network = network
        self.address = address
        # host name -> callback; insertion-ordered for determinism.
        self._subscribers: dict[str, Receiver] = {}
        # Its items, the snapshot each send delivers to: rebuilt on every
        # join and leave, so a callback that changes membership changes
        # the next send's listeners, not this one's.
        self._receivers: tuple[tuple[str, Receiver], ...] = ()
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0

    # -- membership ----------------------------------------------------------
    def join(self, host: str, receive: Receiver) -> None:
        """Subscribe ``host`` (by network name); one callback per host."""
        self._subscribers[host] = receive
        self._receivers = tuple(self._subscribers.items())

    def leave(self, host: str) -> None:
        self._subscribers.pop(host, None)
        self._receivers = tuple(self._subscribers.items())

    @property
    def n_subscribers(self) -> int:
        return len(self._subscribers)

    # -- datagrams ----------------------------------------------------------
    def send(
        self,
        src: str,
        payload: Any,
        nbytes: float = DEFAULT_DATAGRAM_BYTES,
    ) -> int:
        """Publish one datagram from ``src``; returns listeners reached.

        A sender whose link is down reaches nobody; a subscriber whose
        link is down hears nothing.  Lost packets are counted, not
        retried — the aggregator's staleness logic is the recovery path.
        Payload bytes are credited to the NIC byte counters (sender tx,
        each remote receiver's rx) so monitoring traffic is visible in
        the same accounting as everything else.
        """
        network = self.network
        # One lookup per host: every gmond packet of every tick comes
        # through here.
        hosts = network._hosts
        self.packets_sent += 1
        if src not in hosts or not hosts[src].up:
            self.packets_dropped += len(self._subscribers)
            return 0
        sender = hosts[src]
        now = network.env.now
        delivered = 0
        for host, receive in self._receivers:
            if host not in hosts or not hosts[host].up:
                self.packets_dropped += 1
                continue
            listener = hosts[host]
            if host != src:
                listener.rx.bytes_carried += nbytes
            delivered += 1
            receive(src, payload, now)
        if delivered:
            sender.tx.bytes_carried += nbytes
        self.packets_delivered += delivered
        return delivered

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MulticastGroup({self.address!r}, "
            f"{len(self._subscribers)} subscribers)"
        )
