"""Stop-step differential test for ``RocksCluster.integrate_all``.

``integrate_all`` asks the database for a booting node's MAC again only
after a step that changed the database.  :class:`PollingCluster` keeps
the query after every step that this gate replaced.  Both must stop on
the same engine step, so the traces, the clock and the event count
agree exactly.
"""

import pytest

from repro import build_cluster
from repro.cluster import MachineState
from repro.core.tools import InsertEthers
from repro.netsim import AllOf, SimulationError
from repro.quickbuild import RocksCluster
from repro.telemetry import Tracer, to_jsonl


class PollingCluster(RocksCluster):
    """``integrate_all`` with one ``has_mac`` query after every step."""

    def integrate_all(
        self,
        membership: str = "Compute",
        wait_until_up: bool = True,
        per_node_deadline: float = 3600.0,
    ) -> list[str]:
        if self.insert_ethers is None:
            self.insert_ethers = InsertEthers(
                self.frontend, membership=membership
            ).start()
        ie = self.insert_ethers
        named = []
        for machine in self.nodes:
            if self.frontend.db.has_mac(machine.mac):
                continue
            machine.power_on()
            deadline = self.env.now + per_node_deadline
            while not self.frontend.db.has_mac(machine.mac):
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
                self.env.run(until=AllOf(self.env, pending))
        return named


VERSIONS = (RocksCluster, PollingCluster)


def build(cls, n, tracer=None):
    sim = build_cluster(n_compute=n, tracer=tracer)
    return cls(env=sim.env, hardware=sim.hardware, frontend=sim.frontend,
               nodes=sim.nodes)


def clock(sim):
    return sim.env.now, sim.env.events_dispatched


def test_traced_integration_is_byte_identical():
    runs = []
    for cls in VERSIONS:
        tracer = Tracer()
        sim = build(cls, 8, tracer)
        names = sim.integrate_all()
        runs.append((names, clock(sim), to_jsonl(tracer)))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == 8


def test_stops_on_the_step_of_another_writer():
    """A simulation process, not insert-ethers, writes the node's row.
    An unrelated write comes first, so the gate must query again after
    a miss."""

    def admin(sim, machine):
        yield sim.env.timeout(2.0)
        sim.db.set_global("Info", "Note", "racking compute-0-0")
        yield sim.env.timeout(3.0)
        sim.db.add_node("compute-0-0", mac=machine.mac)

    runs = []
    for cls in VERSIONS:
        sim = build(cls, 1)
        start = sim.env.now
        sim.env.process(admin(sim, sim.nodes[0]))
        names = sim.integrate_all(wait_until_up=False)
        assert sim.env.now == start + 5.0
        assert sim.insert_ethers.integrated == []
        runs.append((names, clock(sim)))
    assert runs[0] == runs[1]


def test_known_mac_is_skipped():
    runs = []
    for cls in VERSIONS:
        sim = build(cls, 2)
        known, new = sim.nodes
        sim.db.add_node("compute-0-0", mac=known.mac)
        names = sim.integrate_all(wait_until_up=False)
        assert names == ["compute-0-1"]
        assert known.state is MachineState.OFF
        runs.append((names, clock(sim)))
    assert runs[0] == runs[1]


def test_missing_dhcp_fails_on_the_same_step():
    runs = []
    for cls in VERSIONS:
        sim = build(cls, 1)
        sim.frontend.dhcp.stop()
        sim.frontend.syslog.stop()
        with pytest.raises(SimulationError, match="never integrated") as err:
            sim.integrate_all(per_node_deadline=600.0)
        runs.append((str(err.value), clock(sim)))
    assert runs[0] == runs[1]
