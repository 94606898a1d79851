"""Distinct small behaviours not covered elsewhere."""

import pytest

from repro.cluster import ClusterHardware, PowerState
from repro.netsim import (
    Environment,
    FAST_ETHERNET,
    HttpError,
    HttpServer,
    LoadBalancer,
    Network,
)
from repro.core.database import ClusterDatabase, report_hosts
from repro.core.distribution import RocksDist
from repro.rpm import Package, Repository, stock_redhat
from repro.scheduler import JobState, PbsError, PbsServer


def test_report_hosts_custom_domain():
    db = ClusterDatabase()
    db.add_node("frontend-0", membership="Frontend", mac="m", ip="10.1.1.1")
    text = report_hosts(db, domain="sdsc.edu")
    assert "frontend-0.sdsc.edu frontend-0" in text


def test_machine_power_idempotence():
    env = Environment()
    hw = ClusterHardware(env)
    m = hw.add_machine("pIII-733-myri")
    m.power_off()  # off while off: no-op
    assert m.power is PowerState.OFF
    m.power_on()
    m.power_on()  # on while on: no-op, single lifecycle
    assert m.power is PowerState.ON
    env.run(until=50)


def test_load_balancer_all_dead_reports_error():
    env = Environment()
    net = Network(env)
    net.attach("w0", FAST_ETHERNET)
    net.attach("c", FAST_ETHERNET)
    server = HttpServer(net, "w0")
    server.publish("/x", 10)
    server.running = False
    lb = LoadBalancer([server])

    def go():
        with pytest.raises(HttpError, match="503"):
            yield from lb.get("c", "/x")
        return True

    assert env.run(until=env.process(go()))


def test_pbs_extra_queues_and_qstat_filters():
    env = Environment()
    pbs = PbsServer(env)
    pbs.register_node("n0")
    a = pbs.qsub("u", "a", 1, 10)
    b = pbs.qsub("u", "b", 1, 10)
    pbs.start_job(b, ["n0"])
    assert pbs.qstat(JobState.QUEUED) == [a]
    assert pbs.qstat(JobState.RUNNING) == [b]
    assert len(pbs.qstat()) == 2
    with pytest.raises(PbsError):
        pbs.job(99)


def test_pbs_required_nodes_validation():
    env = Environment()
    pbs = PbsServer(env)
    with pytest.raises(PbsError, match="required_nodes"):
        pbs.qsub("u", "j", nodes=2, walltime=10, required_nodes=["only-one"])


def test_rocksdist_reports_accumulate():
    rd = RocksDist()
    rd.add_source(Repository("s", [Package("a", "1")]))
    rd.dist()
    rd.dist()
    assert len(rd.reports) == 2


def test_distribution_latest_and_names():
    rd = RocksDist.standard(stock_redhat())
    dist = rd.dist()
    assert dist.latest("glibc").name == "glibc"
    assert "glibc" in dist.package_names()
    assert dist.lineage() == "rocks-dist"


def test_frontend_unknown_dist_lookup():
    from repro import build_cluster

    sim = build_cluster(n_compute=0)
    with pytest.raises(KeyError, match="no distribution named"):
        sim.frontend._resolve_dist("nonesuch")


def test_database_execute_and_arbitrary_update():
    db = ClusterDatabase()
    db.add_node("compute-0-0", mac="m")
    db.execute("UPDATE nodes SET comment='repaired' WHERE name='compute-0-0'")
    assert db.node_by_name("compute-0-0").comment == "repaired"
