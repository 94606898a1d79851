"""Integration tests: frontend bring-up, insert-ethers, shoot-node,
eKV, crash cart, cluster-fork/kill, and the queued cluster reinstall."""

import pytest

from repro import build_cluster
from repro.cluster import MachineState, PowerState
from repro.core.database import (
    dhcp_bindings,
    report_dhcpd,
    report_hosts,
    report_pbs_nodes,
)
from repro.core.tools import (
    CrashCart,
    EkvConsole,
    EkvUnreachable,
    InsertEthers,
    NoVideoSignal,
    cluster_fork,
    cluster_kill,
    cluster_uptime,
    queue_cluster_reinstall,
    shoot_node,
)
from repro.exec import ExecState
from repro.scheduler import JobState


@pytest.fixture(scope="module")
def sim():
    """One shared 4-node cluster (module-scoped: bring-up is expensive)."""
    s = build_cluster(n_compute=4)
    s.integrate_all()
    return s


# -- frontend bring-up -------------------------------------------------------------


def test_frontend_installed_and_up(sim):
    f = sim.frontend
    assert f.machine.is_up
    assert len(f.machine.rpmdb) > 100
    assert "dhcp" in f.machine.rpmdb
    assert "maui" in f.machine.rpmdb
    assert f.dhcp.running
    assert f.install_server.running


def test_frontend_in_database(sim):
    row = sim.db.node_by_name("frontend-0")
    assert row.ip == "10.1.1.1"
    assert row.comment == "Gateway machine"


def test_distribution_published(sim):
    f = sim.frontend
    assert "rocks-dist" in f.install_server.distributions()
    dist = f.distributions["rocks-dist"]
    assert dist.tree_bytes() < 40e6


# -- insert-ethers ------------------------------------------------------------------


def test_nodes_integrated_with_table2_naming(sim):
    names = [n.hostid for n in sim.nodes]
    assert names == [f"compute-0-{i}" for i in range(4)]
    rows = sim.db.compute_nodes()
    assert [r.rank for r in rows] == [0, 1, 2, 3]
    assert rows[0].ip == "10.255.255.254"
    assert rows[1].ip == "10.255.255.253"


def test_configs_regenerated_on_insert(sim):
    f = sim.frontend
    assert f.config_regenerations >= 5  # initial + one per node
    assert f.dhcp.n_bindings == 5  # frontend + 4 computes
    assert "compute-0-3" in f.hosts_file
    assert set(f.pbs.nodes()) == {f"compute-0-{i}" for i in range(4)}


def test_regenerated_configs_equal_the_reports():
    # Each insert's regeneration writes what the public reports print,
    # and reads the nodes table once for all of them.
    sim = build_cluster(n_compute=8)
    f = sim.frontend
    loaded = []
    load_bindings = f.dhcp.load_bindings

    def record(bindings, config_text=""):
        loaded.append((bindings == dhcp_bindings(f.db),
                       config_text == report_dhcpd(f.db)))
        load_bindings(bindings, config_text)

    f.dhcp.load_bindings = record
    sim.integrate_all()
    assert loaded == [(True, True)] * 8
    assert f.hosts_file == report_hosts(f.db)
    assert f.pbs.nodes() == sorted(
        line.split()[0] for line in report_pbs_nodes(f.db).splitlines()
    )
    assert len(f.pbs.nodes()) == 8
    del f.dhcp.load_bindings  # the recorder reads the table itself
    reads = []
    nodes, compute_nodes = f.db.nodes, f.db.compute_nodes
    f.db.nodes = lambda *a: reads.append("nodes") or nodes(*a)
    f.db.compute_nodes = lambda: reads.append("compute") or compute_nodes()
    f.regenerate_configs()
    assert reads == ["nodes"]


def test_insert_ethers_ignores_known_macs(sim):
    ie = sim.insert_ethers
    before = len(ie.integrated)
    sim.frontend.dhcp.discover(sim.nodes[0].mac)  # a reinstalling node
    assert len(ie.integrated) == before


def test_insert_ethers_validates_membership(sim):
    with pytest.raises(ValueError, match="unknown membership"):
        InsertEthers(sim.frontend, membership="Mainframes")


def test_nodes_installed_162_packages(sim):
    for node in sim.nodes:
        assert len(node.rpmdb) == 162
        assert node.rpmdb.query("mpich") is not None
        assert node.kernel_version is not None
        assert node.loaded_modules == ["gm"]  # Myrinet driver rebuilt


# -- shoot-node / eKV ------------------------------------------------------------------


def test_shoot_node_over_ethernet(sim):
    node = sim.nodes[0]
    before = node.install_count
    report = sim.env.run(until=shoot_node(sim.frontend, node))
    assert report.ok
    assert report.method == "ethernet"
    assert node.install_count == before + 1
    # §5: "currently 5-10 minutes"
    assert 5 <= report.minutes <= 11


def test_shoot_node_falls_back_to_pdu(sim):
    node = sim.nodes[1]
    node.power_off()  # unresponsive over Ethernet
    report = sim.env.run(until=shoot_node(sim.frontend, node))
    assert report.ok
    assert report.method == "pdu"
    assert node.is_up


def test_ekv_streams_install_console(sim):
    node = sim.nodes[2]
    proc = shoot_node(sim.frontend, node)
    sim.env.run(until=node.wait_for_state(MachineState.INSTALLING))
    ekv = EkvConsole(sim.hardware, node)
    assert ekv.reachable
    sim.env.run(until=sim.env.now + 400)
    lines = "\n".join(ekv.read())
    assert "Package Installation" in lines
    ekv.send_key("F12")
    assert ekv.keys_sent == ["F12"]
    report = sim.env.run(until=proc)
    assert report.ok


def test_ekv_dark_during_post(sim):
    node = sim.nodes[2]
    node.power_off()
    node.power_on()
    assert node.state is MachineState.POST
    ekv = EkvConsole(sim.hardware, node)
    with pytest.raises(EkvUnreachable, match="crash cart"):
        ekv.read()
    sim.env.run(until=node.wait_for_state(MachineState.UP))
    assert ekv.reachable


def test_crash_cart_works_when_ekv_cannot(sim):
    node = sim.nodes[3]
    node.power_off()
    node.power_on()  # in POST: eKV dark
    cart = CrashCart(sim.env)
    console = sim.env.run(until=cart.attach(node))
    assert console is node.console
    sim.env.run(until=node.wait_for_state(MachineState.UP))


def test_crash_cart_no_video_when_off(sim):
    node = sim.nodes[3]
    node.power_off()
    cart = CrashCart(sim.env)

    def go():
        with pytest.raises(NoVideoSignal):
            yield cart.attach(node)
        return True

    assert sim.env.run(until=sim.env.process(go()))
    node.power_on()
    sim.env.run(until=node.wait_for_state(MachineState.UP))


# -- cluster-fork / cluster-kill ----------------------------------------------------------


def test_cluster_fork_default_targets_compute_prefix(sim):
    report = cluster_fork(
        sim.frontend, lambda m, p: (p.stdout.append(m.spec.model), 0)[1]
    )
    assert set(report.results) == {f"compute-0-{i}" for i in range(4)}
    assert report.ok


def test_cluster_kill_with_sql_join(sim):
    """The paper's §6.4 multi-table join example, end to end."""
    for node in sim.nodes:
        node.user_processes.append("bad-job")
    sim.frontend.machine.user_processes.append("bad-job")  # not compute!
    report = cluster_kill(
        sim.frontend,
        "bad-job",
        query=(
            "select nodes.name from nodes,memberships where "
            "nodes.membership = memberships.id and "
            "memberships.name = 'Compute'"
        ),
    )
    assert report.ok
    assert report.targets == [f"compute-0-{i}" for i in range(4)]
    assert all(r.stdout == ["killed 1 'bad-job' process(es)"]
               for r in report.results.values())
    assert all("bad-job" not in n.user_processes for n in sim.nodes)
    # the join kept the frontend out of the blast radius
    assert "bad-job" in sim.frontend.machine.user_processes
    sim.frontend.machine.user_processes.clear()


def test_cluster_kill_by_rack_query(sim):
    sim.nodes[0].user_processes.append("runaway")
    report = cluster_kill(
        sim.frontend, "runaway", query="select name from nodes where rack=0 "
        "and name like 'compute%'"
    )
    assert report.ok
    assert "runaway" not in sim.nodes[0].user_processes


def test_cluster_fork_reports_a_down_host_node_dead(sim):
    """A powered-off host ends NODE_DEAD instead of stalling the sweep,
    and the scalable commands leave it out of their answers."""
    node = sim.nodes[2]
    node.power_off()
    try:
        report = cluster_fork(sim.frontend, lambda m, p: 0)
        assert report.nodes(ExecState.NODE_DEAD).fold() == node.hostid
        assert report.count(ExecState.OK) == 3
        assert node.hostid not in cluster_uptime(sim.frontend)
    finally:
        node.power_on()
        sim.env.run(until=node.wait_for_state(MachineState.UP))


def test_cluster_fork_rejects_both_selectors(sim):
    with pytest.raises(ValueError):
        cluster_fork(sim.frontend, lambda m, p: 0, nodes=["a"], query="select 1")


def test_cluster_fork_runs_a_timed_command(sim):
    """A command that waits runs on the frontend's clock: cluster-fork
    returns when the last host finishes, 5 simulated seconds on."""

    def timed(machine, proc):
        yield sim.env.timeout(5.0)
        return 0

    start = sim.env.now
    report = cluster_fork(sim.frontend, timed)
    assert report.count(ExecState.OK) == 4
    assert sim.env.now == start + 5.0


# -- queued cluster reinstall (§5) -----------------------------------------------------------


def test_reinstall_campaign_waits_for_running_jobs():
    sim = build_cluster(n_compute=3)
    sim.integrate_all()
    f = sim.frontend
    f.maui.start()
    app = f.pbs.qsub("bruno", "gamess", nodes=2, walltime=900)
    f.maui.schedule_once()
    assert app.state is JobState.RUNNING

    campaign = queue_cluster_reinstall(f)
    assert len(campaign.jobs) == 3
    sim.env.run(until=campaign.wait_event(sim.env))
    assert campaign.complete
    assert all(r.ok for r in campaign.reports)
    # the running application was never disturbed:
    assert app.state is JobState.COMPLETE
    assert app.finished_at - app.started_at == pytest.approx(900)
    # reinstalls of its nodes started only after it finished
    for job in campaign.jobs:
        if set(job.required_nodes) & set(app.assigned_nodes):
            assert job.started_at >= app.finished_at
    # and every node is back with install_count == 2 (integration + upgrade)
    assert all(n.install_count == 2 for n in sim.nodes)
