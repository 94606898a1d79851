"""Network-enabled power distribution units.

Section 4 of the paper: "If a compute node doesn't respond over the
network, it can be remotely power cycled by executing a hard power
cycle command for its outlet on a network-enabled power distribution
unit" — and a hard power cycle forces the node to reinstall itself.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..netsim import Environment
from .node import Machine

__all__ = ["PowerDistributionUnit", "OutletError"]


class OutletError(Exception):
    """Bad outlet number or unwired outlet."""


class PowerDistributionUnit:
    """A strip of remotely-switchable outlets, one machine per outlet."""

    #: seconds an outlet stays dark during a cycle command
    CYCLE_DELAY = 5.0

    def __init__(self, env: Environment, name: str, n_outlets: int = 24):
        if n_outlets <= 0:
            raise ValueError("a PDU needs at least one outlet")
        self.env = env
        self.name = name
        self.n_outlets = n_outlets
        self._outlets: dict[int, Machine] = {}
        self.cycles_issued = 0

    def wire(self, outlet: int, machine: Machine) -> None:
        """Plug a machine into an outlet."""
        self._check_outlet(outlet)
        if outlet in self._outlets:
            raise OutletError(f"outlet {outlet} on {self.name} already wired")
        self._outlets[outlet] = machine

    def machine_at(self, outlet: int) -> Machine:
        self._check_outlet(outlet)
        try:
            return self._outlets[outlet]
        except KeyError:
            raise OutletError(f"outlet {outlet} on {self.name} is not wired") from None

    def outlets(self) -> list[tuple[int, Machine]]:
        """Wired outlets in deterministic (outlet-number) order."""
        return sorted(self._outlets.items())

    def outlet_of(self, machine: Machine) -> Optional[int]:
        for outlet, m in self._outlets.items():
            if m is machine:
                return outlet
        return None

    def power_off(self, outlet: int) -> None:
        self.machine_at(outlet).power_off(hard=True)

    def power_on(self, outlet: int) -> None:
        self.machine_at(outlet).power_on()

    def hard_cycle(self, outlet: int) -> "Generator":
        """Process: cut power, wait, restore.  Forces a reinstall."""
        machine = self.machine_at(outlet)
        self.cycles_issued += 1

        def cycle():
            machine.power_off(hard=True)
            yield self.env.timeout(self.CYCLE_DELAY)
            machine.power_on()

        return cycle()

    def _check_outlet(self, outlet: int) -> None:
        if not 0 <= outlet < self.n_outlets:
            raise OutletError(
                f"{self.name} has outlets 0..{self.n_outlets - 1}, got {outlet}"
            )
