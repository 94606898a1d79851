"""The frontend-side metric aggregator (gmetad).

One :class:`MetricAggregator` joins the gmond multicast group on the
frontend's NIC and builds the live cluster view: the last packet per
host, per-host staleness ages, and a :class:`~.rrd.RoundRobinStore`
holding every numeric series as ``<host>/<metric>``.  An attached
:class:`~.alerts.AlertEngine` is evaluated on a fixed tick.

The aggregator is a :class:`~repro.services.base.Service`, so the fault
injector can kill it like any other daemon — a dead gmetad drops
packets on the floor, and its view goes uniformly stale.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..netsim import Environment, MulticastGroup
from ..services.base import Service
from .agent import MetricPacket
from .rrd import RoundRobinStore, feed_series

__all__ = ["MetricAggregator"]


class MetricAggregator(Service):
    """Listens on the multicast group; owns the cluster's metric state."""

    def __init__(
        self,
        env: Environment,
        group: MulticastGroup,
        listen_addr: str,
        store: Optional[RoundRobinStore] = None,
        interval: float = 15.0,
        stale_after: Optional[float] = None,
        engine=None,
    ):
        super().__init__("gmetad")
        self.env = env
        self.group = group
        self.listen_addr = listen_addr
        self.store = store if store is not None else RoundRobinStore()
        self.interval = interval
        #: a host is stale once its last packet is older than this; the
        #: Ganglia rule of thumb is a few missed beats, not one.
        self.stale_after = (
            stale_after if stale_after is not None else 3.0 * interval
        )
        self.engine = engine
        self.packets_received = 0
        #: hosts that *should* be reporting (dict-as-set, insertion order)
        self._expected: dict[str, None] = {}
        #: last packet per host, in first-heard order
        self._last: dict[str, MetricPacket] = {}
        #: series per (host, metric names) — the set of metrics a host
        #: reports is near-constant, so the receive path skips the name
        #: formatting and store lookup per metric.
        self._series_cache: dict[tuple, list] = {}
        group.join(listen_addr, self._receive)
        self.start()
        if engine is not None:
            self._eval_proc = env.process(self._tick(), name="gmetad:eval")
        else:
            self._eval_proc = None

    # -- expected membership ------------------------------------------------
    def expect(self, host: str) -> None:
        """Register a host whose silence should count as *down*."""
        self._expected[host] = None

    def expect_hosts(self, hosts: Iterable[str]) -> None:
        for host in hosts:
            self.expect(host)

    def expected_hosts(self) -> list[str]:
        return list(self._expected)

    def known_hosts(self) -> list[str]:
        """Expected plus anything that ever reported, stable order."""
        known = dict(self._expected)
        for host in self._last:
            known.setdefault(host, None)
        return list(known)

    # -- the receive path ---------------------------------------------------
    def _receive(self, src: str, packet: MetricPacket, t: float) -> None:
        if not self.running:
            return  # a dead gmetad hears nothing
        self.packets_received += 1
        self._last[packet.host] = packet
        metrics = packet.metrics
        key = (packet.host, tuple([name for name, _ in metrics]))
        series = self._series_cache.get(key)
        if series is None:
            series = [
                self.store.open_series(f"{packet.host}/{name}")
                for name, _ in metrics
            ]
            self._series_cache[key] = series
        feed_series(series, t, metrics)

    # -- the live view ------------------------------------------------------
    def last_packet(self, host: str) -> Optional[MetricPacket]:
        return self._last.get(host)

    def snapshot(self) -> dict[str, MetricPacket]:
        return dict(self._last)

    def age(self, host: str) -> float:
        """Seconds since the host last reported (inf if never)."""
        packet = self._last.get(host)
        return float("inf") if packet is None else self.env.now - packet.t

    def is_stale(self, host: str) -> bool:
        return self.age(host) > self.stale_after

    def down_hosts(self, threshold: Optional[float] = None) -> list[str]:
        """Hosts silent past the threshold — shoot-node candidates.

        Expected hosts that never reported have age inf, which no
        threshold forgives.
        """
        limit = threshold if threshold is not None else self.stale_after
        return sorted(h for h in self.known_hosts() if self.age(h) > limit)

    def up_hosts(self, threshold: Optional[float] = None) -> list[str]:
        limit = threshold if threshold is not None else self.stale_after
        return sorted(h for h in self.known_hosts() if self.age(h) <= limit)

    # -- alert evaluation ---------------------------------------------------
    def _tick(self):
        while True:
            # Fixed-period tick: share the heap entry with anything else
            # due at the same instant.
            yield self.env.slotted_timeout(self.interval)
            if self.running and self.engine is not None:
                self.engine.evaluate(self, self.env.now)
