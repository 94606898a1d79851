"""dhcpd under the install storm: same-tick herds, stagger, verdicts.

Satellite coverage for the power-restore scenario: hundreds of nodes
broadcasting DHCPDISCOVER in the same simulated instant, the seeded
per-MAC stagger that spreads the herd, and the bounded-retry verdict a
dead dhcpd produces at storm scale.
"""

import dataclasses

from repro import build_cluster
from repro.cluster import MachineState
from repro.installer import DEFAULT_CALIBRATION
from repro.netsim import Environment
from repro.services import DhcpBinding, DhcpServer, Syslog


def make_dhcp(n_bindings=0):
    env = Environment()
    log = Syslog(env)
    server = DhcpServer(env, log, "frontend-0")
    server.start()
    server.load_bindings(
        [
            DhcpBinding(f"aa:bb:cc:00:{i // 256:02x}:{i % 256:02x}",
                        f"10.1.{i // 256}.{i % 256}", f"compute-0-{i}")
            for i in range(n_bindings)
        ]
    )
    return env, log, server


def test_three_hundred_same_tick_discovers_all_get_leases():
    env, log, server = make_dhcp(n_bindings=300)
    leases = [
        server.discover(f"aa:bb:cc:00:{i // 256:02x}:{i % 256:02x}")
        for i in range(300)
    ]
    assert all(lease is not None for lease in leases)
    # the whole herd was answered in one simulated instant
    assert {lease.granted_at for lease in leases} == {env.now}
    assert len({lease.ip for lease in leases}) == 300
    assert server.discover_count == 300
    assert server.unknown_macs_seen == []
    # every exchange is visible to insert-ethers via syslog
    texts = [m.text for m in log.messages]
    assert sum("DHCPDISCOVER" in t for t in texts) == 300
    assert sum("DHCPACK" in t for t in texts) == 300


def test_same_tick_storm_with_unknown_macs_keeps_arrival_order():
    env, log, server = make_dhcp(n_bindings=200)
    unknown = [f"de:ad:be:ef:{i // 256:02x}:{i % 256:02x}" for i in range(50)]
    granted = 0
    expected_unknown = []
    for i in range(250):
        if i % 5 == 4:  # every fifth discover is an unadopted node
            mac = unknown[i // 5]
            expected_unknown.append(mac)
            assert server.discover(mac) is None
        else:
            lease = server.discover(
                f"aa:bb:cc:00:{granted // 256:02x}:{granted % 256:02x}"
            )
            assert lease is not None
            granted += 1
    assert server.discover_count == 250
    # unknown MACs are recorded in exact arrival order (insert-ethers
    # adopts nodes in the order their first DISCOVER hit syslog)
    assert server.unknown_macs_seen == expected_unknown
    assert sum("no free leases" in m.text for m in log.messages) == 50


def test_rebinding_mid_storm_flips_verdicts_within_the_same_tick():
    env, _, server = make_dhcp(n_bindings=0)
    assert server.discover("aa:aa:aa:00:00:01") is None
    server.load_bindings([DhcpBinding("aa:aa:aa:00:00:01", "10.9.0.1", "c0")])
    lease = server.discover("aa:aa:aa:00:00:01")
    assert lease is not None and lease.granted_at == env.now == 0.0


def test_dhcp_stagger_spreads_the_herd_deterministically():
    """With stagger, first DISCOVERs spread over (0, stagger]; seeded per MAC."""

    def first_discover_times(seed):
        cal = dataclasses.replace(
            DEFAULT_CALIBRATION, dhcp_stagger_seconds=30.0
        )
        sim = build_cluster(n_compute=8, calibration=cal, seed=seed)
        sim.integrate_all()
        t0 = sim.env.now
        for node in sim.nodes:
            node.request_reinstall()
        sim.env.run(until=t0 + 400.0)
        times = {}
        for msg in sim.frontend.syslog.messages:
            if msg.time >= t0 and "DHCPDISCOVER from" in msg.text:
                mac = msg.text.split("DHCPDISCOVER from ")[1].split()[0]
                times.setdefault(mac, msg.time - t0)
        return times

    times = first_discover_times(seed=3)
    assert len(times) == 8
    # stagger actually spread the herd instead of one thundering tick
    assert len(set(times.values())) == 8
    # and the spread is a pure function of the seed and MACs
    assert first_discover_times(seed=3) == times


def test_storm_of_nodes_against_dead_dhcpd_all_reach_bounded_verdicts():
    """Max-attempts at storm scale: every node hangs with a diagnosis."""
    cal = dataclasses.replace(
        DEFAULT_CALIBRATION,
        dhcp_max_attempts=3,
        dhcp_retry_seconds=5.0,
        dhcp_stagger_seconds=10.0,
    )
    sim = build_cluster(n_compute=12, calibration=cal, seed=7)
    sim.integrate_all()
    sim.frontend.dhcp.fail()
    for node in sim.nodes:
        node.request_reinstall()
    for node in sim.nodes:
        sim.env.run(until=node.wait_for_state(MachineState.HUNG))
    assert all(m.state is MachineState.HUNG for m in sim.nodes)
    for node in sim.nodes:
        assert any(
            "DHCP: no answer after 3 attempts" in line
            for line in node.console
        ), node.hostid
