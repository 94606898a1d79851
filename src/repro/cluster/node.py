"""The simulated machine: power states, boot path, disks, console.

A Rocks compute node's OS is *soft state* (§1): the machine model
therefore separates what survives a reinstall (non-root partitions,
the hardware itself, its MAC) from what does not (the root filesystem,
i.e. the :class:`~repro.rpm.rpmdb.RpmDatabase` and configuration files).

The boot path implements the paper's semantics:

* a **hard power cycle** forces the node to reinstall itself
  (footnote, §4);
* a node with no OS installs on first boot;
* ``request_reinstall()`` is what *shoot-node* sends over Ethernet;
* otherwise the node boots its installed OS and comes ``UP``.

The actual installation procedure is injected (``install_driver``) so
this layer stays independent of the installer above it.
"""

from __future__ import annotations

import enum
import functools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from ..netsim import Environment, Interrupt, Process
from ..rpm import RpmDatabase
from .hardware import MachineSpec, NicKind

__all__ = ["Machine", "PowerState", "MachineState", "Partition", "BootTimes"]


class PowerState(enum.Enum):
    OFF = "off"
    ON = "on"


class MachineState(enum.Enum):
    """What the machine is doing (visible over eKV or the crash cart)."""

    OFF = "off"
    POST = "post"  # BIOS power-on self test: invisible over Ethernet (§4)
    INSTALLING = "installing"
    BOOTING = "booting"
    UP = "up"
    HUNG = "hung"


@dataclass
class Partition:
    """A named disk partition; ``data`` survives reinstalls unless root."""

    name: str
    size_mb: int
    is_root: bool = False
    data: dict[str, Any] = field(default_factory=dict)

    def wipe(self) -> None:
        self.data.clear()


@dataclass(frozen=True)
class BootTimes:
    """Calibrated durations (seconds) for the non-install boot phases."""

    post: float = 75.0  # BIOS + memory check
    post_jitter: float = 20.0  # staggering across nodes
    boot_os: float = 55.0  # kernel + init scripts to multi-user

    def sample_post(self, rng: random.Random) -> float:
        return max(5.0, self.post + rng.uniform(-self.post_jitter, self.post_jitter))


InstallDriver = Callable[["Machine"], Generator]


class Machine:
    """One piece of cluster hardware attached to the simulation."""

    def __init__(
        self,
        env: Environment,
        spec: MachineSpec,
        mac: str,
        name: Optional[str] = None,
        boot_times: BootTimes = BootTimes(),
        rng_seed: int = 0,
    ):
        self.env = env
        self.spec = spec
        self.mac = mac
        self.name = name  # assigned by insert-ethers for anonymous nodes
        self.boot_times = boot_times
        self._rng_key = (rng_seed, mac).__repr__()

        self.power = PowerState.OFF
        self.state = MachineState.OFF
        self.reinstall_on_boot = False
        self.rpmdb = RpmDatabase()
        self.partitions: dict[str, Partition] = {}
        self.kernel_version: Optional[str] = None
        self.ip: Optional[str] = None  # leased by DHCP during install
        self.loaded_modules: list[str] = []
        self.console: list[str] = []  # what eKV / the crash cart shows
        #: names of user processes running on the node (cluster-kill's prey)
        self.user_processes: list[str] = []
        #: live anaconda progress while INSTALLING (Figure 7 / eKV screen)
        self.install_progress: Optional[Any] = None
        #: current installer phase name ("dhcp", "packages", ...) while
        #: INSTALLING; None otherwise — what monitoring agents report
        self.install_phase: Optional[str] = None
        self.install_driver: Optional[InstallDriver] = None
        self.install_count = 0
        self.last_install_report: Any = None
        #: tracer span of whatever caused the next installation (a
        #: campaign's per-node span, a mass-reinstall root); the install
        #: driver parents its span here.  None = the install is a root.
        self.trace_parent: Optional[Any] = None

        self._lifecycle: Optional[Process] = None
        self._install_proc: Optional[Process] = None
        self._state_waiters: list[tuple[MachineState, Any]] = []
        #: callbacks fired as fn(machine, new_state) on every transition
        self.on_state_change: list[Callable[["Machine", MachineState], None]] = []

    @functools.cached_property
    def rng(self) -> random.Random:
        """The POST-jitter stream, seeded on first use.

        Only a boot draws from it, and a seeded Mersenne Twister is
        2.5 KB of state, so a machine that never boots never builds one.
        """
        return random.Random(self._rng_key)

    # -- identity -----------------------------------------------------------
    @property
    def hostid(self) -> str:
        """Stable network identity: the hostname once assigned, else the MAC."""
        return self.name or self.mac

    @property
    def has_myrinet(self) -> bool:
        return self.spec.has_myrinet

    @property
    def os_installed(self) -> bool:
        return len(self.rpmdb) > 0

    @property
    def is_up(self) -> bool:
        return self.state is MachineState.UP

    # -- console ------------------------------------------------------------
    def console_write(self, line: str) -> None:
        self.console.append(f"[{self.env.now:10.1f}] {line}")

    # -- power control ------------------------------------------------------
    def power_on(self) -> None:
        if self.power is PowerState.ON:
            return
        self.power = PowerState.ON
        # POST is visible immediately so wait_for_state(UP) set up right
        # after power_on() waits for the *next* boot to finish.
        self._set_state(MachineState.POST)
        self._lifecycle = self.env.process(
            self._run_lifecycle(), name=f"lifecycle:{self.hostid}"
        )

    def power_off(self, hard: bool = False) -> None:
        """Cut power.  A *hard* cut marks the node for reinstall on next boot."""
        if self.power is PowerState.OFF:
            return
        self.power = PowerState.OFF
        if hard:
            self.reinstall_on_boot = True
        if self.state is MachineState.INSTALLING:
            # Power loss mid-install leaves a half-written root: no OS.
            self.rpmdb.wipe()
            root = self.root_partition()
            if root is not None:
                root.wipe()
        proc = self._lifecycle
        self._lifecycle = None
        if proc is not None and proc.is_alive and self.env.active_process is not proc:
            proc.interrupt("power removed")
        self._set_state(MachineState.OFF)

    def request_reinstall(self) -> None:
        """What shoot-node delivers: reboot into installation mode."""
        self.reinstall_on_boot = True
        self.reboot()

    def hang(self, cause: str = "kernel panic") -> None:
        """Freeze the node (§4's unresponsive case): only power recovers it.

        The OS stops running, so the Ethernet goes dark and any
        in-progress installation dies where it stands.  The recovery
        path is the paper's escalation — a hard PDU power cycle, which
        forces a reinstall.
        """
        if self.power is PowerState.OFF or self.state is MachineState.HUNG:
            return
        if self.state is MachineState.INSTALLING:
            # Dying mid-install leaves a half-written root: no OS.
            self.rpmdb.wipe()
            root = self.root_partition()
            if root is not None:
                root.wipe()
            self.reinstall_on_boot = True
        proc = self._lifecycle
        self._lifecycle = None
        if proc is not None and proc.is_alive and self.env.active_process is not proc:
            proc.interrupt(f"hang: {cause}")
        self.console_write(f"Kernel panic: {cause}")
        self._set_state(MachineState.HUNG)

    def reboot(self) -> None:
        """Soft reboot (graceful): restart the lifecycle without a hard cut."""
        if self.power is PowerState.OFF:
            self.power_on()
            return
        if self.state is MachineState.INSTALLING:
            # Rebooting mid-install abandons a half-written root: the
            # node is not bootable and must restart its installation.
            self.rpmdb.wipe()
            root = self.root_partition()
            if root is not None:
                root.wipe()
            self.reinstall_on_boot = True
        proc = self._lifecycle
        if proc is not None and proc.is_alive and self.env.active_process is not proc:
            proc.interrupt("reboot")
        self._set_state(MachineState.POST)
        self._lifecycle = self.env.process(
            self._run_lifecycle(), name=f"lifecycle:{self.hostid}"
        )

    # -- state machine --------------------------------------------------------
    def _set_state(self, state: MachineState) -> None:
        self.state = state
        for listener in list(self.on_state_change):
            listener(self, state)
        still_waiting = []
        for wanted, event in self._state_waiters:
            if wanted is state and not event.triggered:
                event.succeed(state)
            elif not event.triggered:
                still_waiting.append((wanted, event))
        self._state_waiters = still_waiting

    def wait_for_state(self, state: MachineState):
        """An event that triggers when the machine reaches ``state``."""
        event = self.env.event()
        if self.state is state:
            event.succeed(state)
        else:
            self._state_waiters.append((state, event))
        return event

    def _run_lifecycle(self) -> Generator:
        tracer = self.env.tracer
        boot_span = None
        if tracer.enabled and self.trace_parent is not None:
            # One span per caused boot attempt, POST through multi-user
            # UP, parented on whatever triggered it (a shoot, a storm's
            # power restore).  The install nests inside it, so the dark
            # POST/OS-boot windows attribute as node-boot time instead
            # of vanishing into root self-time.
            boot_span = tracer.span("boot", self.hostid,
                                    parent=self.trace_parent)
            self.trace_parent = boot_span
        outcome = "hung"
        try:
            # POST: the administrator is "in the dark" here (§4) — nothing
            # is visible over Ethernet until Linux configures the NIC.
            self._set_state(MachineState.POST)
            yield self.env.timeout(self.boot_times.sample_post(self.rng))

            if self.reinstall_on_boot or not self.os_installed:
                if self.install_driver is None:
                    self.console_write("no installation server configured; hung")
                    self._set_state(MachineState.HUNG)
                    return
                self._set_state(MachineState.INSTALLING)
                self.reinstall_on_boot = False
                self._install_proc = self.env.process(
                    self.install_driver(self), name=f"install:{self.hostid}"
                )
                try:
                    report = yield self._install_proc
                except Interrupt:
                    raise
                except Exception as err:  # install blew up: node is stuck
                    self._install_proc = None
                    self.console_write(f"installation failed: {err}")
                    self._set_state(MachineState.HUNG)
                    return
                self._install_proc = None
                self.last_install_report = report
                self.install_count += 1
                # fall through into the normal boot of the fresh OS
            self._set_state(MachineState.BOOTING)
            yield self.env.timeout(self.boot_times.boot_os)
            self.console_write("multi-user boot complete")
            self._set_state(MachineState.UP)
            outcome = "up"
        except Interrupt as interrupt:
            self.console_write(f"lifecycle interrupted: {interrupt.cause}")
            outcome = "interrupted"
            # Cascade: a running installation dies with its machine.
            child = self._install_proc
            self._install_proc = None
            if child is not None and child.is_alive:
                child.interrupt(interrupt.cause)
            return
        finally:
            if boot_span is not None:
                boot_span.end(outcome=outcome)
                if self.trace_parent is boot_span:
                    # The causal link is consumed: a later, uncaused
                    # boot must not parent on this ended span.
                    self.trace_parent = None

    # -- disks ----------------------------------------------------------------
    def root_partition(self) -> Optional[Partition]:
        for part in self.partitions.values():
            if part.is_root:
                return part
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Machine({self.hostid!r}, {self.spec.model}, "
            f"{self.power.value}/{self.state.value})"
        )
