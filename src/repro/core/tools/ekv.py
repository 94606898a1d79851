"""eKV — Ethernet Keyboard and Video (§6.3, Figure 7).

"This is accomplished by slightly modifying Red Hat's Kickstart
installation program, anaconda, to capture standard output and present
it on a telnet-compatible port.  Should something go wrong, we've also
inserted code that allows users to interact with the installation
through the same xterm window."

The console content is the machine's console buffer (the installer
writes there); eKV adds the remote-access semantics: it only answers
while the node's Ethernet is actually up — during POST the administrator
is "in the dark" (§4) and needs the crash cart.
"""

from __future__ import annotations

from ...cluster import ClusterHardware, Machine, MachineState

__all__ = ["EkvConsole", "EkvUnreachable", "EKV_PORT"]

#: the telnet-compatible port the modified anaconda listens on
EKV_PORT = 8023


class EkvUnreachable(Exception):
    """The node's Ethernet is dark (POST, powered off, or hung early)."""


class EkvConsole:
    """A remote view of one installing (or running) node's console."""

    def __init__(self, cluster: ClusterHardware, machine: Machine):
        self.cluster = cluster
        self.machine = machine
        self._cursor = 0
        self.keys_sent: list[str] = []

    # -- reachability ------------------------------------------------------------
    @property
    def reachable(self) -> bool:
        """eKV works once Linux brings up eth0: install/boot/up states."""
        return self.machine.state in (
            MachineState.INSTALLING,
            MachineState.BOOTING,
            MachineState.UP,
        ) and self.cluster.network.has_host(self.machine.mac)

    def _require(self) -> None:
        if not self.reachable:
            raise EkvUnreachable(
                f"{self.machine.hostid} is {self.machine.state.value}; "
                "no eKV until Linux configures the Ethernet (use the crash cart)"
            )

    # -- the telnet session ---------------------------------------------------------
    def read(self) -> list[str]:
        """New console lines since the last read."""
        self._require()
        lines = self.machine.console[self._cursor:]
        self._cursor = len(self.machine.console)
        return lines

    def tail(self, n: int = 10) -> list[str]:
        self._require()
        return self.machine.console[-n:]

    def screen(self) -> str:
        """Render the Figure 7 anaconda installation screen."""
        from ...installer.screen import render_install_screen

        self._require()
        progress = self.machine.install_progress
        if progress is None:
            raise EkvUnreachable(
                f"{self.machine.hostid} is not in the package-installation phase"
            )
        progress.now = self.machine.env.now
        return render_install_screen(progress)

    def send_key(self, key: str) -> None:
        """Interact with the installation (Figure 7's <Tab>/<Space>/F12)."""
        self._require()
        self.keys_sent.append(key)
        self.machine.console_write(f"eKV: operator pressed <{key}>")
