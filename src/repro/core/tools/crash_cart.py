"""The crash cart — a monitor and a keyboard (§4).

"If the compute node is still unresponsive, physical intervention is
required.  For this case, we have a crash cart."  Unlike eKV, the cart
works whenever the node has power (it reads the VGA console directly),
which is exactly its value: it covers the window where the administrator
is otherwise in the dark.
"""

from __future__ import annotations

from ...cluster import Machine, PowerState

__all__ = ["CrashCart", "NoVideoSignal"]


class NoVideoSignal(Exception):
    """The node is powered off — even the cart shows nothing."""


class CrashCart:
    """One shared cart; wheeling it over takes real minutes."""

    #: simulated seconds to wheel the cart to a rack and plug in
    WHEEL_TIME = 120.0

    def __init__(self, env):
        self.env = env
        self.attached_to: Machine | None = None
        self.attach_count = 0

    def attach(self, machine: Machine):
        """Process: wheel over, plug in, return the live console."""

        def go():
            yield self.env.timeout(self.WHEEL_TIME)
            if machine.power is PowerState.OFF:
                raise NoVideoSignal(f"{machine.hostid} is powered off")
            self.attached_to = machine
            self.attach_count += 1
            return machine.console

        return self.env.process(go(), name=f"crash-cart:{machine.hostid}")
