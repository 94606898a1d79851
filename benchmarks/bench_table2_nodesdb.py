"""Table II: the nodes table, populated by insert-ethers.

The paper's Table II shows a mixed cabinet: frontend-0 at 10.1.1.1, an
Ethernet switch, an NFS server, four compute nodes with descending IPs
from 10.255.255.x, and a web server in cabinet 1.  We integrate exactly
that mix through insert-ethers (switches get no MAC-bound install; they
are inserted administratively) and print the resulting table.
"""

import pytest

from helpers import print_rows
from repro import build_cluster
from repro.core.tools import InsertEthers


def _build_table2():
    sim = build_cluster(n_compute=0)
    f = sim.frontend
    # administrative entries (no hardware boot): the cabinet switch
    f.db.add_node("network-0-0", membership="Ethernet Switches",
                  comment="Switch for Cabinet 0")
    # an NFS appliance integrated via insert-ethers in nfs mode
    nfs_machine = sim.hardware.add_machine("nfs-server")
    f.adopt(nfs_machine)
    with InsertEthers(f, membership="NFS Servers") as ie_nfs:
        ie_nfs.insert(nfs_machine.mac)
    # four compute nodes, booted sequentially under insert-ethers
    sim.add_compute_nodes(4)
    sim.integrate_all()
    # a web server in cabinet 1
    web_machine = sim.hardware.add_machine("pIII-733-dual", cabinet=None)
    f.adopt(web_machine)
    with InsertEthers(f, membership="Web Servers", cabinet=1) as ie_web:
        ie_web.insert(web_machine.mac)
    return sim


def bench_table2_population(benchmark):
    sim = benchmark.pedantic(_build_table2, rounds=1, iterations=1)
    db = sim.db
    rows = db.query(
        "select nodes.id, nodes.mac, nodes.name, memberships.name, "
        "nodes.rack, nodes.rank, nodes.ip from nodes, memberships "
        "where nodes.membership = memberships.id order by nodes.id"
    )
    by_name = {r[2]: r for r in rows}

    # Table II's structure:
    assert by_name["frontend-0"][6] == "10.1.1.1"
    assert by_name["network-0-0"][3] == "Ethernet Switches"
    assert by_name["nfs-0-0"][3] == "NFS Servers"
    assert by_name["web-1-0"][4] == 1  # rack 1
    computes = [r for r in rows if r[3] == "Compute"]
    assert [r[2] for r in computes] == [f"compute-0-{i}" for i in range(4)]
    assert [r[5] for r in computes] == [0, 1, 2, 3]  # rank follows boot order
    # compute IPs descend from the top of 10/8 (insert order)
    compute_ips = [r[6] for r in computes]
    assert compute_ips == sorted(compute_ips, reverse=True)
    # every MAC-bearing row is unique
    macs = [r[1] for r in rows if r[1]]
    assert len(macs) == len(set(macs))

    print_rows(
        "Table II: the nodes table",
        ("ID", "MAC", "Name", "Membership", "Rack", "Rank", "IP"),
        [(r[0], r[1] or "-", r[2], r[3], r[4], r[5], r[6]) for r in rows],
    )


def bench_table2_insert_rate(benchmark):
    """Database-side cost of one insert-ethers integration step."""
    sim = build_cluster(n_compute=0)
    f = sim.frontend
    counter = [0]

    def insert_one():
        i = counter[0]
        counter[0] += 1
        f.db.add_node(f"compute-9-{i}", mac=f"00:50:8b:ff:{i >> 8:02x}:{i & 255:02x}",
                      rack=9, rank=i)
        f.regenerate_configs()

    before = f.dhcp.n_bindings
    benchmark.pedantic(insert_one, rounds=50, iterations=1)
    # --benchmark-disable runs one round, not 50: count what really ran.
    assert counter[0] >= 1
    assert f.dhcp.n_bindings == before + counter[0]
