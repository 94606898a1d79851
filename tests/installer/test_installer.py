"""Tests for hardware detection, partitioning, and the install process."""

import pytest

from repro import build_cluster
from repro.cluster import (
    CATALOG,
    ClusterHardware,
    MachineState,
    Partition,
)
from repro.installer import (
    DEFAULT_CALIBRATION,
    InstallProfile,
    KickstartInstaller,
    PartitionError,
    PartitionPlan,
    PartitionRequest,
    PostScript,
    apply_plan,
    probe,
)
from repro.netsim import FAST_ETHERNET, Environment
from repro.rpm import Package
from repro.services import DhcpBinding, DhcpServer, InstallServer, Syslog


# -- hwdetect -------------------------------------------------------------------


def test_probe_scsi_machine():
    hw = probe(CATALOG["pIII-733-dual"])
    assert hw.disk_module == "aic7xxx"
    assert hw.disk_device == "sda"
    assert not hw.needs_myrinet_rebuild
    assert hw.relative_cpu_speed == pytest.approx(1.0)


def test_probe_myrinet_ide_machine():
    hw = probe(CATALOG["pIII-1000-myri"])
    assert hw.disk_module == "ide-disk"
    assert hw.needs_myrinet_rebuild
    assert hw.modules == ("ide-disk", "eepro100")  # gm NOT loadable yet


def test_probe_ia64_raid():
    hw = probe(CATALOG["ia64-800-raid"])
    assert hw.cpu_arch == "ia64"
    assert hw.disk_module == "megaraid"


# -- partitioning -----------------------------------------------------------------


def machine_for_partition_tests():
    env = Environment()
    cluster = ClusterHardware(env)
    return cluster.add_machine("pIII-733-myri")


def test_default_plan_creates_root_swap_state():
    m = machine_for_partition_tests()
    formatted = apply_plan(m, PartitionPlan.default())
    assert set(formatted) == {"/", "swap", "/state/partition1"}
    assert m.root_partition().name == "/"


def test_reinstall_preserves_nonroot_data():
    m = machine_for_partition_tests()
    apply_plan(m, PartitionPlan.default())
    m.partitions["/state/partition1"].data["results"] = [1, 2, 3]
    m.partitions["/"].data["etc/passwd"] = "root"
    formatted = apply_plan(m, PartitionPlan.default())  # reinstall
    assert m.partitions["/state/partition1"].data == {"results": [1, 2, 3]}
    assert m.partitions["/"].data == {}  # root reformatted
    assert "/state/partition1" not in formatted


def test_plan_too_big_for_disk():
    m = machine_for_partition_tests()  # 20 GB disk
    plan = PartitionPlan((PartitionRequest("/", 40 * 1024),))
    with pytest.raises(PartitionError):
        apply_plan(m, plan)


def test_plan_without_root_rejected():
    m = machine_for_partition_tests()
    plan = PartitionPlan((PartitionRequest("/scratch", 1024),))
    with pytest.raises(ValueError, match="no root"):
        apply_plan(m, plan)


def test_grow_partition_takes_remainder():
    m = machine_for_partition_tests()  # 20 GB
    apply_plan(m, PartitionPlan.default())
    grown = m.partitions["/state/partition1"].size_mb
    assert grown == 20 * 1024 - 4096 - 1024


# -- the full install process -------------------------------------------------------


def small_packages():
    """A small, fast profile that still carries the GM build toolchain."""
    pkgs = [Package("glibc", "2.2.4", size=4_000_000)]
    pkgs += [
        Package(f"pkg{i}", "1.0", size=2_000_000, requires=("glibc",))
        for i in range(5)
    ]
    pkgs += [
        Package("gcc", "2.96", size=2_000_000),
        Package("make", "3.79.1", size=1_000_000),
        Package("kernel-source", "2.4.9", size=2_000_000),
        Package("kernel", "2.4.9", "5", size=2_000_000),
    ]
    return pkgs


class Rig:
    """Minimal frontend: DHCP + install server + static kickstart CGI."""

    def __init__(self, profile_factory=None, n_nodes=1, model="pIII-733-myri"):
        self.env = Environment()
        self.cluster = ClusterHardware(self.env, seed=3)
        self.cluster.network.attach("frontend", FAST_ETHERNET)
        self.syslog = Syslog(self.env)
        self.dhcp = DhcpServer(self.env, self.syslog, "frontend")
        self.dhcp.start()
        self.server = InstallServer(self.env, self.cluster.network, "frontend")
        self.packages = small_packages()
        self.server.publish_packages("rocks", self.packages)

        def default_profile():
            return InstallProfile(
                dist_name="rocks",
                packages=list(self.packages),
                kickstart_text="# generated",
            )

        self.profile_factory = profile_factory or default_profile
        self.server.register_kickstart_cgi(
            lambda client, path: (self.profile_factory(), 4096)
        )
        self.installer = KickstartInstaller(self.dhcp, self.server)
        self.nodes = []
        for i in range(n_nodes):
            node = self.cluster.add_machine(model)
            self.installer.attach(node)
            self.dhcp.load_bindings(
                [
                    DhcpBinding(n.mac, f"10.255.255.{254 - j}", f"compute-0-{j}")
                    for j, n in enumerate(self.nodes + [node])
                ]
            )
            self.nodes.append(node)

    def install_all(self):
        for node in self.nodes:
            node.power_on()
        for node in self.nodes:
            self.env.run(until=node.wait_for_state(MachineState.UP))
        return [n.last_install_report for n in self.nodes]


def test_install_completes_and_populates_node():
    rig = Rig()
    (report,) = rig.install_all()
    node = rig.nodes[0]
    assert node.is_up
    assert node.install_count == 1
    assert len(node.rpmdb) == len(rig.packages)
    assert node.kernel_version == "2.4.9-5"
    assert node.ip == "10.255.255.254"
    assert report.n_packages == len(rig.packages)
    assert report.bytes_transferred == sum(p.size for p in rig.packages)


def test_install_report_phases_accounted():
    rig = Rig()
    (report,) = rig.install_all()
    for phase in ["dhcp", "kickstart", "partition", "packages", "post", "myrinet"]:
        assert report.phase_seconds.get(phase, 0) > 0, phase
    assert report.myrinet_rebuilt
    assert sum(report.phase_seconds.values()) <= report.total_seconds + 1e-6


def test_install_without_myrinet_skips_rebuild():
    rig = Rig(model="athlon-1200")
    (report,) = rig.install_all()
    assert not report.myrinet_rebuilt
    assert "myrinet" not in report.phase_seconds


def test_myrinet_penalty_is_20_to_30_percent():
    """§6.3: the source rebuild adds a 20-30% reinstall-time penalty."""
    with_myri = Rig(model="pIII-733-myri").install_all()[0]
    without = Rig(model="pIII-733-dual").install_all()[0]
    # Same 733 MHz CPU; compare only the installer's own phases (the
    # small 10-package profile shrinks the base, so compare directly
    # against the myrinet phase share at full calibration elsewhere).
    penalty = with_myri.phase_seconds["myrinet"]
    assert penalty > 0
    assert with_myri.total_seconds > without.total_seconds


def test_faster_cpu_installs_faster():
    slow = Rig(model="pIII-733-myri").install_all()[0]
    fast = Rig(model="pIII-1000-myri").install_all()[0]
    assert fast.phase_seconds["packages"] < slow.phase_seconds["packages"]
    assert fast.phase_seconds["myrinet"] < slow.phase_seconds["myrinet"]


def test_node_waits_for_dhcp_binding():
    """A node not in the database retries DISCOVER until bound."""
    rig = Rig()
    node = rig.nodes[0]
    rig.dhcp.load_bindings([])  # forget the node
    node.power_on()
    # let it retry for a while: stays INSTALLING, syslog fills with DISCOVERs
    rig.env.run(until=500)
    assert node.state is MachineState.INSTALLING
    discovers = [m for m in rig.syslog.messages
                 if f"DHCPDISCOVER from {node.mac}" in m.text]
    assert len(discovers) >= 2
    # now the admin runs insert-ethers (simulated by restoring the binding)
    rig.dhcp.load_bindings(
        [DhcpBinding(node.mac, "10.255.255.254", "compute-0-0")]
    )
    rig.env.run(until=node.wait_for_state(MachineState.UP))
    assert node.is_up


def test_install_progress_on_console():
    rig = Rig()
    rig.install_all()
    console = "\n".join(rig.nodes[0].console)
    assert "Package Installation" in console
    assert "installation complete" in console


def test_on_progress_callback():
    lines = []
    rig = Rig()
    rig.installer.on_progress = lambda m, line: lines.append((m.hostid, line))
    rig.install_all()
    assert any("Package Installation" in l for _, l in lines)


def test_power_cycle_mid_install_restarts_cleanly():
    rig = Rig()
    node = rig.nodes[0]
    node.power_on()
    rig.env.run(until=node.wait_for_state(MachineState.INSTALLING))
    rig.env.run(until=rig.env.now + 150)  # partway through packages
    node.power_off(hard=True)
    assert len(node.rpmdb) == 0  # half-written root wiped
    node.power_on()
    rig.env.run(until=node.wait_for_state(MachineState.UP))
    assert node.install_count == 1
    assert len(node.rpmdb) == len(rig.packages)
    # the aborted transfer freed its bandwidth
    assert rig.cluster.network.flows.active_flows == 0


def test_two_concurrent_installs_share_and_finish():
    rig = Rig(n_nodes=2)
    reports = rig.install_all()
    assert all(r.n_packages == len(rig.packages) for r in reports)
    assert rig.server.http.requests_served >= 2 * (len(rig.packages) + 1)


def test_bad_cgi_body_hangs_node_with_diagnostic():
    rig = Rig(profile_factory=lambda: "not a profile")
    node = rig.nodes[0]
    node.power_on()
    rig.env.run(until=node.wait_for_state(MachineState.HUNG))
    assert any("installation failed" in line for line in node.console)


def test_reinstall_dispatches_at_most_five_events_per_request():
    """Fetches run inside the installing process: no child Process each."""
    sim = build_cluster(n_compute=4)
    sim.integrate_all()
    http = sim.frontend.install_server.http
    events, served = sim.env.events_dispatched, http.requests_served
    sim.reinstall_all()
    events = sim.env.events_dispatched - events
    served = http.requests_served - served
    assert served == 4 * 163  # a kickstart and 162 packages per node
    assert events <= 5 * served
