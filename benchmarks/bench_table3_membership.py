"""Table III: the memberships table and SQL-directed cluster tools.

The paper's §6.4 example: cluster-kill fed a two-table join selects only
the nodes whose membership is marked compute, so a runaway job is killed
on compute nodes while appliance servers are untouched.  We reproduce
the memberships table, run the *verbatim* query from the paper, and
benchmark the join.
"""

import pytest

from helpers import print_rows
from repro import build_cluster
from repro.core.tools import InsertEthers, cluster_kill

PAPER_QUERY = (
    "select nodes.name from nodes,memberships where "
    "nodes.membership = memberships.id and memberships.name = 'Compute'"
)


def _mixed_cluster():
    sim = build_cluster(n_compute=3)
    f = sim.frontend
    nfs_machine = sim.hardware.add_machine("nfs-server")
    f.adopt(nfs_machine)
    with InsertEthers(f, membership="NFS Servers") as ie:
        ie.insert(nfs_machine.mac)
    sim.integrate_all()
    nfs_machine.power_on()
    sim.env.run(until=nfs_machine.wait_for_state(nfs_machine.state.UP))
    return sim


def bench_table3_membership_catalog(benchmark):
    sim = benchmark.pedantic(_mixed_cluster, rounds=1, iterations=1)
    rows = sim.db.memberships()
    catalog = {name: (appliance, compute) for _, name, appliance, compute in rows}
    # Table III's shape: Frontend/Compute/... with only Compute marked yes
    assert catalog["Frontend"][1] == "no"
    assert catalog["Compute"][1] == "yes"
    assert catalog["Power Units"][1] == "no"
    assert sum(1 for _, c in catalog.values() if c == "yes") == 1
    print_rows(
        "Table III: memberships",
        ("ID", "Name", "Appliance", "Compute"),
        rows,
    )


def bench_table3_join_query(benchmark):
    sim = _mixed_cluster()
    rows = benchmark(sim.db.query, PAPER_QUERY)
    names = [r[0] for r in rows]
    assert names == [f"compute-0-{i}" for i in range(3)]
    assert "nfs-0-0" not in names


def bench_table3_cluster_kill_join(benchmark):
    """The paper's cluster-kill example, end to end, repeatedly."""
    sim = _mixed_cluster()
    nfs = sim.hardware.by_name("nfs-0-0")

    def seed_and_kill():
        for node in sim.nodes:
            node.user_processes.append("bad-job")
        nfs.user_processes.append("bad-job")
        return cluster_kill(sim.frontend, "bad-job", query=PAPER_QUERY)

    report = benchmark.pedantic(seed_and_kill, rounds=5, iterations=1)
    assert report.ok
    # compute nodes cleaned, the NFS appliance untouched:
    assert report.targets == [n.hostid for n in sim.nodes]
    assert all("bad-job" not in n.user_processes for n in sim.nodes)
    assert nfs.user_processes.count("bad-job") >= 1
    print_rows(
        "§6.4: cluster-kill --query (paper's join)",
        ("target", "killed"),
        [(host, report.results[host].stdout[0]) for host in report.targets],
    )
