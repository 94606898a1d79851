"""Cluster hardware assembly: machines, cabinets, and the Ethernet fabric.

This is Figure 1 of the paper as code: standard high-volume servers on a
single Ethernet (no dedicated management network — "yet another network
increases the physical deployment and the management burden"), power
units, and an optional Myrinet interconnect which we track as a hardware
attribute (it matters to the installer, which must rebuild its driver)
but not as a second simulated fabric, since all management traffic rides
Ethernet.

Machines are addressed on the simulated network by **MAC address** —
their only identity before insert-ethers names them, exactly as in the
paper where a node is first known by the MAC in its DHCP request.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from ..netsim import Environment, MBIT, Network
from .hardware import CATALOG, MacAllocator, MachineSpec
from .node import BootTimes, Machine
from .rack import Cabinet

__all__ = ["ClusterHardware"]


class ClusterHardware:
    """All physical assets of one cluster, wired to a simulated Ethernet."""

    def __init__(self, env: Environment, seed: int = 0, boot_times: BootTimes = BootTimes()):
        self.env = env
        self.seed = seed
        self.boot_times = boot_times
        self.network = Network(env)
        self.macs = MacAllocator()
        self.cabinets: list[Cabinet] = []
        self._by_mac: dict[str, Machine] = {}
        self._by_name: dict[str, Machine] = {}

    # -- construction ---------------------------------------------------------
    def add_cabinet(self, capacity: int = 32) -> Cabinet:
        cab = Cabinet(self.env, rack=len(self.cabinets), capacity=capacity)
        self.cabinets.append(cab)
        return cab

    def add_machine(
        self,
        spec: Union[MachineSpec, str],
        cabinet: Optional[Cabinet] = None,
        name: Optional[str] = None,
    ) -> Machine:
        """Rack and cable a new machine; it starts powered off.

        ``spec`` may be a :class:`MachineSpec` or a catalog model name.
        """
        if isinstance(spec, str):
            try:
                spec = CATALOG[spec]
            except KeyError:
                raise KeyError(
                    f"unknown machine model {spec!r}; catalog has "
                    f"{sorted(CATALOG)}"
                ) from None
        mac = self.macs.allocate()
        machine = Machine(
            self.env,
            spec,
            mac,
            name=name,
            boot_times=self.boot_times,
            rng_seed=self.seed,
        )
        self._by_mac[mac] = machine
        if name:
            self._register_name(machine, name)
        self.network.attach(mac, speed=spec.ethernet_mbit * MBIT)
        # Mirror the OS state onto the Ethernet link automatically.
        machine.on_state_change.append(lambda m, _s: self.sync_link_state(m))
        self.sync_link_state(machine)
        if cabinet is None:
            if not self.cabinets or len(self.cabinets[-1]) >= self.cabinets[-1].capacity:
                self.add_cabinet()
            cabinet = self.cabinets[-1]
        cabinet.insert(machine)
        return machine

    def rename(self, machine: Machine, name: str) -> None:
        """Give an anonymous machine its cluster hostname (insert-ethers)."""
        if machine.name == name:
            return
        if machine.name is not None:
            self._by_name.pop(machine.name, None)
        machine.name = name
        self._register_name(machine, name)

    def _register_name(self, machine: Machine, name: str) -> None:
        if name in self._by_name and self._by_name[name] is not machine:
            raise ValueError(f"hostname {name!r} already taken")
        self._by_name[name] = machine

    # -- lookup -----------------------------------------------------------------
    def by_mac(self, mac: str) -> Machine:
        try:
            return self._by_mac[mac]
        except KeyError:
            raise KeyError(f"no machine with MAC {mac!r}") from None

    def by_name(self, name: str) -> Machine:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no machine named {name!r}") from None

    def find(self, ident: str) -> Machine:
        """Resolve a hostname or MAC to a machine."""
        if ident in self._by_name:
            return self._by_name[ident]
        return self.by_mac(ident)

    def machines(self) -> Iterator[Machine]:
        return iter(self._by_mac.values())

    def location(self, machine: Machine) -> Optional[tuple[int, int]]:
        """(rack, rank) of a racked machine, or None."""
        for cab in self.cabinets:
            rank = cab.rank_of(machine)
            if rank is not None:
                return (cab.rack, rank)
        return None

    def pdu_for(self, machine: Machine):
        """The PDU/outlet pair feeding a machine, or None if unwired."""
        for cab in self.cabinets:
            outlet = cab.pdu.outlet_of(machine)
            if outlet is not None:
                return cab.pdu, outlet
        return None

    # -- link state ---------------------------------------------------------------
    def ethernet_reachable(self, a: Machine, b: Machine) -> bool:
        """Can ``a`` talk to ``b``?  Requires b's OS up with its NIC configured."""
        return (
            self.network.reachable(a.mac, b.mac)
            and a.power.value == "on"
            and b.power.value == "on"
        )

    def sync_link_state(self, machine: Machine) -> None:
        """Reflect the machine's OS state onto its network link.

        The Ethernet comes up early in boot (§4) — during installation
        (eKV needs it) and when up — and is dark during POST or power-off.
        """
        from .node import MachineState

        up = machine.state in (
            MachineState.INSTALLING,
            MachineState.BOOTING,
            MachineState.UP,
        )
        if self.network.has_host(machine.mac):
            self.network.set_host_up(machine.mac, up)
