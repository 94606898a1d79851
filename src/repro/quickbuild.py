"""High-level convenience API: build and drive a whole Rocks cluster.

This wraps the full stack — hardware, frontend, services, insert-ethers
— behind the workflow a Rocks administrator actually follows (§7):

1. install the frontend from CD (``build_cluster`` does this);
2. run insert-ethers and boot compute nodes one at a time with the same
   CD (:meth:`RocksCluster.integrate_all`);
3. manage thereafter by reinstalling (:meth:`RocksCluster.reinstall_all`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cluster import ClusterHardware, Machine, MachineState
from .core.frontend import FrontendConfig, RocksFrontend
from .core.tools import InsertEthers, ShootReport, shoot_nodes
from .installer import DEFAULT_CALIBRATION, InstallCalibration
from .netsim import AllOf, Environment, SimulationError
from .rpm import Repository
from .telemetry import Tracer

__all__ = ["RocksCluster", "build_cluster"]


@dataclass
class RocksCluster:
    """A running simulation: environment, hardware, frontend, nodes."""

    env: Environment
    hardware: ClusterHardware
    frontend: RocksFrontend
    nodes: list[Machine] = field(default_factory=list)
    insert_ethers: Optional[InsertEthers] = None

    # -- node integration (§6.4) ---------------------------------------------------
    def add_compute_nodes(self, n: int, model: str = "pIII-733-myri") -> list[Machine]:
        """Rack new hardware (powered off, not yet in the database)."""
        new = []
        for _ in range(n):
            machine = self.hardware.add_machine(model)
            self.frontend.adopt(machine)
            new.append(machine)
        self.nodes.extend(new)
        return new

    def integrate_all(
        self,
        membership: str = "Compute",
        wait_until_up: bool = True,
        per_node_deadline: float = 3600.0,
    ) -> list[str]:
        """Run insert-ethers and boot un-integrated nodes sequentially.

        Sequential boot order is what binds (rack, rank) to physical
        position (§6.4 footnote).  Installations themselves overlap.
        Returns the assigned hostnames, in order.  Asking for another
        ``membership`` than the running insert-ethers has restarts it.
        Raises :class:`SimulationError` when a node is not named, or the
        named nodes are not all UP, within ``per_node_deadline``
        simulated seconds.
        """
        running = self.insert_ethers
        if running is None or running.membership != membership:
            # Built first: an unknown membership raises before the
            # running instance stops listening.
            ie = InsertEthers(self.frontend, membership=membership)
            if running is not None:
                running.stop()
            self.insert_ethers = ie.start()
        db = self.frontend.db
        named = []
        for machine in self.nodes:
            if db.has_mac(machine.mac):
                continue
            seen = db.total_changes
            machine.power_on()
            deadline = self.env.now + per_node_deadline
            while True:
                # Only a written row can bring the MAC in, whoever writes
                # it: re-query after a step that changed the database.
                if db.total_changes != seen:
                    seen = db.total_changes
                    if db.has_mac(machine.mac):
                        break
                if self.env.peek() == float("inf") or self.env.now > deadline:
                    raise SimulationError(
                        f"{machine.mac} was never integrated (is dhcpd/"
                        "syslog running and insert-ethers listening?)"
                    )
                self.env.step()
            named.append(machine.hostid)
        if wait_until_up:
            # One barrier over every pending boot, not a serial per-host
            # wait: integration time stays ~max(node), not ~sum(node).
            pending = [
                machine.wait_for_state(MachineState.UP)
                for machine in self.nodes
                if machine.state is not MachineState.UP
            ]
            if pending:
                # A node hung in its first install never comes UP, and
                # periodic events keep the engine busy: stop at the
                # deadline.  A timer would draw a sanitizer tie-break
                # key; stepping schedules nothing, so the same events
                # dispatch as under run(until=barrier).
                barrier = AllOf(self.env, pending)
                deadline = self.env.now + per_node_deadline
                while not barrier.triggered:
                    if self.env.peek() > deadline:
                        stuck = ", ".join(
                            f"{m.hostid} ({m.state.name})"
                            for m in self.nodes
                            if m.state is not MachineState.UP
                        )
                        raise SimulationError(
                            f"not UP {per_node_deadline:g} s after "
                            f"integration: {stuck}"
                        )
                    self.env.step()
        return named

    # -- the management primitive (§5): reinstall ---------------------------------------
    def reinstall_all(
        self, machines: Optional[Sequence[Machine]] = None
    ) -> list[ShootReport]:
        """Concurrently reinstall nodes via shoot-node; returns reports."""
        targets = list(machines) if machines is not None else list(self.nodes)
        tracer = self.env.tracer
        # Root span for the whole mass reinstall: every per-node install
        # (and everything under it) parents here, so `repro explain` can
        # walk one causality tree for the §6.3 experiment.
        span = (
            tracer.span("reinstall", f"x{len(targets)}", nodes=len(targets))
            if tracer.enabled
            else None
        )
        proc = shoot_nodes(self.frontend, targets, parent=span)
        reports = self.env.run(until=proc)
        if span is not None:
            span.end(ok=sum(1 for r in reports if r.ok))
        return reports

    def machine(self, name: str) -> Machine:
        return self.hardware.by_name(name)

    @property
    def db(self):
        return self.frontend.db


def build_cluster(
    n_compute: int = 4,
    compute_model: str = "pIII-733-myri",
    config: Optional[FrontendConfig] = None,
    calibration: InstallCalibration = DEFAULT_CALIBRATION,
    stock: Optional[Repository] = None,
    updates: Optional[Repository] = None,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> RocksCluster:
    """Stand up a frontend (installed, services running) plus racked nodes.

    The returned cluster's compute nodes are still powered off and
    anonymous — call :meth:`RocksCluster.integrate_all` to adopt them.
    Passing a :class:`~repro.telemetry.Tracer` attaches it before any
    service starts, so the trace covers frontend bring-up too.
    """
    env = Environment()
    if tracer is not None:
        tracer.attach(env)
    hardware = ClusterHardware(env, seed=seed)
    if config is None:
        config = FrontendConfig(calibration=calibration)
    else:
        config.calibration = calibration
    frontend = RocksFrontend(env, hardware, config, stock=stock, updates=updates)
    frontend.install_from_cd()
    sim = RocksCluster(env=env, hardware=hardware, frontend=frontend)
    sim.add_compute_nodes(n_compute, model=compute_model)
    return sim
