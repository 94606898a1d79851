"""The per-node metric agent (gmond).

Every machine — compute nodes and the frontend — runs a
:class:`MetricAgent`: a perpetual process that samples local state and
multicasts a compact :class:`MetricPacket` to the well-known group
address.  Fidelity notes:

* the agent transmits whenever the node's OS (or anaconda's install
  environment, which carries the same telemetry the eKV console does)
  has the NIC up — ``INSTALLING``, ``BOOTING``, ``UP``.  A node in
  POST, HUNG, or powered off is dark, exactly the §4 "administrator in
  the dark" window, and that silence is the signal the aggregator's
  staleness logic (and the node-down alert) feeds on;
* sampling has **seeded jitter**: each agent's tick phase and period
  wobble come from a ``random.Random`` seeded with the agent's MAC, so
  broadcasts interleave like real unsynchronized daemons yet replay
  byte-identically for a given seed;
* packets are cheap value objects delivered synchronously over
  :class:`~repro.netsim.multicast.MulticastGroup` — no flows, no
  bandwidth contention, so enabling monitoring never perturbs the
  simulation it observes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..cluster import Machine, MachineState
from ..netsim import MulticastGroup

__all__ = ["MetricAgent", "MetricPacket", "GMOND_MULTICAST", "ExtraSampler"]

#: Ganglia's historical default channel; any string works as an address.
GMOND_MULTICAST = "239.2.11.71"

#: The machine states in which the NIC is configured and gmond can talk.
_VISIBLE_STATES = (
    MachineState.INSTALLING,
    MachineState.BOOTING,
    MachineState.UP,
)

#: Hook for host-specific metrics (the frontend adds service health,
#: HTTP admission gauges, and scheduler depths): machine ->
#: (numeric metrics, string labels).
ExtraSampler = Callable[[Machine], tuple[dict[str, float], dict[str, str]]]


@dataclass(frozen=True)
class MetricPacket:
    """One gmond broadcast: numeric metrics plus string labels.

    ``metrics`` and ``labels`` are the sampler's own dicts, the one
    shape a reading has from agent to round-robin store: readers look
    names up in them, and what prints them sorts where it prints.
    """

    host: str        # stable host identity (hostname once assigned)
    addr: str        # network address the packet left from (the MAC)
    t: float         # simulated send time
    seq: int         # per-agent sequence number
    metrics: dict[str, float]
    labels: dict[str, str]


class MetricAgent:
    """gmond: samples one machine and multicasts the readings."""

    def __init__(
        self,
        machine: Machine,
        group: MulticastGroup,
        interval: float = 15.0,
        seed: int = 0,
        extra_sampler: Optional[ExtraSampler] = None,
    ):
        if interval <= 0:
            raise ValueError("agent interval must be positive")
        self.machine = machine
        self.group = group
        self.interval = interval
        self.extra_sampler = extra_sampler
        # Seeded per-agent: phase offset and per-tick wobble are unique
        # to this MAC but identical across same-seed runs.
        self.rng = random.Random(("gmond", seed, machine.mac).__repr__())
        self.packets_sent = 0
        self.packets_heard = 0  # delivered to at least one listener
        self._seq = 0
        self._n_cpus = max(machine.spec.cpu.count, 1)
        #: the machine's network host, looked up once it is attached
        self._nic = None
        self._proc = machine.env.process(
            self._loop(), name=f"gmond:{machine.hostid}"
        )

    # -- sampling -----------------------------------------------------------
    def sample(self) -> MetricPacket:
        """Read the machine's current state into a packet (no side effects)."""
        machine = self.machine
        env = machine.env
        metrics: dict[str, float] = {}
        labels: dict[str, str] = {}

        load = len(machine.user_processes)
        installing = machine.state is MachineState.INSTALLING
        metrics["load"] = load
        # cpu proxy: anaconda pegs a CPU while installing; otherwise the
        # running user processes spread over the cores (clamped to 1).
        if installing:
            metrics["cpu"] = 1.0
        else:
            cpu = load / self._n_cpus
            metrics["cpu"] = 1.0 if cpu > 1.0 else cpu
        metrics["packages"] = len(machine.rpmdb)
        metrics["installs"] = machine.install_count
        # ``_value_`` is the member's value without the ``.value``
        # descriptor call; every agent reads it every tick.
        labels["state"] = machine.state._value_
        labels["phase"] = machine.install_phase or ""
        labels["kernel"] = machine.kernel_version or ""

        nic = self._nic
        if nic is None and self.group.network.has_host(machine.mac):
            nic = self._nic = self.group.network.host(machine.mac)
        if nic is not None:
            metrics["net.tx_bytes"] = nic.tx.bytes_carried
            metrics["net.rx_bytes"] = nic.rx.bytes_carried
            metrics["net.tx_util"] = nic.tx.utilization()
            metrics["net.rx_util"] = nic.rx.utilization()

        progress = machine.install_progress
        if installing and progress is not None:
            metrics["install.done_pkgs"] = progress.done_packages
            metrics["install.total_pkgs"] = progress.total_packages
            metrics["install.done_bytes"] = progress.done_bytes

        if self.extra_sampler is not None:
            extra_metrics, extra_labels = self.extra_sampler(machine)
            metrics.update(extra_metrics)
            labels.update(extra_labels)

        packet = MetricPacket(
            # ``hostid`` without the property call
            host=machine.name or machine.mac,
            addr=machine.mac,
            t=env.now,
            seq=self._seq,
            metrics=metrics,
            labels=labels,
        )
        self._seq += 1
        return packet

    @property
    def visible(self) -> bool:
        """Whether the agent can currently reach the wire."""
        return self.machine.state in _VISIBLE_STATES

    # -- the daemon loop ----------------------------------------------------
    def _loop(self):
        machine = self.machine
        env = machine.env
        rng = self.rng
        # Unsynchronized daemons: each starts at a random phase so 32
        # agents don't all broadcast on the same simulated instant.
        yield env.timeout(rng.uniform(0.0, self.interval))
        # Each tick's wobble is ``rng.uniform(-wobble, wobble)``, spelled
        # out as ``a + (b - a) * random()``, the same float, without the
        # ``uniform`` frame; ``visible`` is read inline too.
        wobble = 0.05 * self.interval
        span = wobble - -wobble
        while True:
            if machine.state in _VISIBLE_STATES:
                packet = self.sample()
                heard = self.group.send(machine.mac, packet)
                self.packets_sent += 1
                if heard:
                    self.packets_heard += 1
            yield env.timeout(self.interval + (-wobble + span * rng.random()))
