"""Tests for the high-level build_cluster/RocksCluster API."""

import pytest

from repro import build_cluster
from repro.cluster import MachineState
from repro.installer import InstallCalibration
from repro.netsim import SimulationError


def test_build_cluster_defaults():
    sim = build_cluster(n_compute=2)
    assert sim.frontend.machine.is_up
    assert len(sim.nodes) == 2
    # nodes racked but anonymous until integrated
    assert all(n.name is None for n in sim.nodes)
    assert sim.db.nodes() and len(sim.db.compute_nodes()) == 0


def test_integrate_all_names_in_boot_order():
    sim = build_cluster(n_compute=3)
    names = sim.integrate_all()
    assert names == ["compute-0-0", "compute-0-1", "compute-0-2"]
    assert all(n.is_up for n in sim.nodes)


def test_integrate_all_idempotent():
    sim = build_cluster(n_compute=2)
    sim.integrate_all()
    again = sim.integrate_all()
    assert again == []  # nothing new to integrate
    assert len(sim.db.compute_nodes()) == 2


def test_add_nodes_after_integration():
    """Scaling out: §5 'each compute node added... only increments the
    total management effort by a small amount'."""
    sim = build_cluster(n_compute=2)
    sim.integrate_all()
    sim.add_compute_nodes(2)
    names = sim.integrate_all()
    assert names == ["compute-0-2", "compute-0-3"]
    assert len(sim.db.compute_nodes()) == 4


def test_reinstall_subset():
    sim = build_cluster(n_compute=3)
    sim.integrate_all()
    reports = sim.reinstall_all([sim.nodes[1]])
    assert len(reports) == 1
    assert sim.nodes[1].install_count == 2
    assert sim.nodes[0].install_count == 1


def test_custom_calibration_changes_install_time():
    fast = InstallCalibration(cpu_seconds_per_mb=0.2)
    sim = build_cluster(n_compute=1, calibration=fast)
    sim.integrate_all()
    (report,) = sim.reinstall_all()
    assert report.minutes < 8  # well under the default ~10


def test_machine_lookup():
    sim = build_cluster(n_compute=1)
    sim.integrate_all()
    assert sim.machine("compute-0-0") is sim.nodes[0]
    with pytest.raises(KeyError):
        sim.machine("compute-9-9")


def test_integration_requires_dhcp_running():
    sim = build_cluster(n_compute=1)
    sim.frontend.dhcp.stop()
    sim.frontend.syslog.stop()
    with pytest.raises(SimulationError, match="never integrated"):
        sim.integrate_all(per_node_deadline=600.0)


def test_integrate_all_honours_membership_after_first_call():
    """A later call with another membership restarts insert-ethers with
    it; the running Compute instance must not name the new node."""
    sim = build_cluster(n_compute=1)
    sim.integrate_all()
    (server,) = sim.add_compute_nodes(1, model="nfs-server")
    assert sim.integrate_all(membership="NFS Servers") == ["nfs-0-0"]
    row = sim.db.node_by_mac(server.mac)
    assert row.membership == sim.db.membership_id("NFS Servers")
    assert server.is_up
    # An unknown membership is refused before the running instance stops,
    # and the same membership keeps that instance.
    nfs = sim.insert_ethers
    with pytest.raises(ValueError, match="unknown membership"):
        sim.integrate_all(membership="Bogus Servers")
    sim.add_compute_nodes(1, model="nfs-server")
    assert sim.integrate_all(membership="NFS Servers") == ["nfs-0-1"]
    assert sim.insert_ethers is nfs
    # Back to the default: Compute numbering resumes where it left off.
    sim.add_compute_nodes(1)
    assert sim.integrate_all() == ["compute-0-1"]


def test_integrate_all_fails_fast_when_a_node_hangs():
    """A Myrinet compute model lacks the GM driver's build tools as an
    NFS appliance, so its first install hangs.  The UP barrier gives up
    ``per_node_deadline`` after it starts instead of running forever."""
    sim = build_cluster(n_compute=1)
    named = sim.integrate_all(membership="NFS Servers", wait_until_up=False)
    assert named == ["nfs-0-0"]
    start = sim.env.now
    with pytest.raises(SimulationError,
                       match=r"not UP 3600 s after integration: "
                             r"nfs-0-0 \(HUNG\)$"):
        sim.integrate_all(membership="NFS Servers")
    assert start < sim.env.now <= start + 3600.0
