"""Fault-injection subsystem: plans, injector determinism, campaigns."""

import pytest

from repro import build_cluster
from repro.cluster import MachineState
from repro.core.tools import (
    EscalationPolicy,
    NodeOutcome,
    ReinstallCampaign,
)
from repro.faults import (
    PLANS,
    DhcpBlackout,
    FaultInjector,
    FaultPlan,
    LinkDegrade,
    LinkFlap,
    NodeCrash,
    NodeHang,
    PackageCorruption,
    ServerCrash,
    chaos_reinstall,
    named_plan,
)
from repro.services import Faultable


# -- plans ------------------------------------------------------------------

def test_named_plan_lookup_and_reseed():
    plan = named_plan("default", seed=42)
    assert plan.seed == 42
    assert plan.name == "default"
    with pytest.raises(KeyError, match="no fault plan named"):
        named_plan("nope")


def test_default_plan_matches_acceptance_scenario():
    """Server crash at t=120s + 5% package corruption + 2 node hangs."""
    plan = PLANS["default"]
    kinds = {type(f): f for f in plan.faults}
    assert kinds[ServerCrash].at == 120.0
    assert kinds[PackageCorruption].rate == 0.05
    assert kinds[NodeHang].count == 2


def test_faultable_mixin_unifies_service_fault_surface():
    sim = build_cluster(n_compute=1)
    for svc in (sim.frontend.install_server, sim.frontend.dhcp, sim.frontend.nfs):
        assert isinstance(svc, Faultable)
        assert not svc.faulted
        svc.fail()
        assert svc.faulted
        svc.repair()
        assert not svc.faulted


# -- injector determinism ---------------------------------------------------

def test_same_seed_identical_injection_log_and_report():
    a = chaos_reinstall(n_nodes=4, plan="default", seed=3)
    b = chaos_reinstall(n_nodes=4, plan="default", seed=3)
    assert a.injector.signature() == b.injector.signature()
    assert a.report.render() == b.report.render()
    assert a.minutes == b.minutes


def test_different_seed_changes_victim_selection():
    plans_hit = set()
    for seed in (1, 2, 3, 4):
        res = chaos_reinstall(
            n_nodes=6,
            plan=FaultPlan("hangs", (NodeHang(at=300.0, count=2),)),
            seed=seed,
        )
        victims = tuple(
            r.target for r in res.injector.log if r.kind == "node-hang"
        )
        assert len(victims) == 2
        plans_hit.add(victims)
    assert len(plans_hit) > 1  # the seed genuinely drives selection


def test_injector_arms_only_once():
    sim = build_cluster(n_compute=1)
    inj = FaultInjector(PLANS["none"])
    inj.arm(sim.frontend, sim.nodes)
    with pytest.raises(RuntimeError, match="already armed"):
        inj.arm(sim.frontend, sim.nodes)


# -- individual fault deliveries -------------------------------------------

def _campaign(sim, plan, seed=0, policy=None):
    injector = FaultInjector(plan.with_seed(seed)).arm(sim.frontend, sim.nodes)
    campaign = ReinstallCampaign(sim.frontend, policy or EscalationPolicy())
    report = sim.env.run(until=campaign.run(sim.nodes))
    return report, injector


def test_server_crash_is_ridden_out_by_download_retries():
    """A short install-server outage costs retries, not nodes."""
    sim = build_cluster(n_compute=2)
    sim.integrate_all()
    plan = FaultPlan("crash", (ServerCrash(at=120.0, duration=45.0),))
    report, injector = _campaign(sim, plan)
    assert report.completion_rate == 1.0
    kinds = [r.kind for r in injector.log]
    assert kinds == ["service-fail", "service-repair"]


def test_dhcp_blackout_delays_but_campaign_completes():
    sim = build_cluster(n_compute=2)
    sim.integrate_all()
    plan = FaultPlan("dhcp", (DhcpBlackout(at=10.0, duration=120.0),))
    report, _ = _campaign(sim, plan)
    assert report.completion_rate == 1.0


def test_node_hang_escalates_to_pdu():
    sim = build_cluster(n_compute=2)
    sim.integrate_all()
    plan = FaultPlan("hang", (NodeHang(at=300.0, node=0),))
    report, injector = _campaign(sim, plan)
    assert report.completion_rate == 1.0
    victim = next(r.target for r in injector.log if r.kind == "node-hang")
    by_host = {n.host: n for n in report.nodes}
    assert by_host[victim].outcome is NodeOutcome.ESCALATED
    assert "pdu" in by_host[victim].methods


def test_node_crash_recovered_by_power_cycle():
    sim = build_cluster(n_compute=2)
    sim.integrate_all()
    plan = FaultPlan("crash", (NodeCrash(at=300.0, node=1),))
    report, _ = _campaign(sim, plan)
    assert report.completion_rate == 1.0
    assert all(m.state is MachineState.UP for m in sim.nodes)


def test_link_flap_and_degrade_are_restored():
    sim = build_cluster(n_compute=2)
    sim.integrate_all()
    net = sim.hardware.network
    frontend_mac = sim.frontend.machine.mac
    original = net.host(frontend_mac).speed
    plan = FaultPlan(
        "net",
        (
            LinkFlap(at=60.0, flaps=2, down_seconds=5.0, up_seconds=10.0),
            LinkDegrade(at=200.0, factor=0.5, duration=60.0),
        ),
    )
    report, injector = _campaign(sim, plan)
    assert report.completion_rate == 1.0
    assert net.host(frontend_mac).speed == original
    assert net.host(frontend_mac).up
    kinds = [r.kind for r in injector.log]
    assert kinds.count("link-down") == 2 and kinds.count("link-up") == 2
    assert "link-degrade" in kinds and "link-restore" in kinds


def test_package_corruption_detected_and_refetched():
    sim = build_cluster(n_compute=1)
    sim.integrate_all()
    plan = FaultPlan("corrupt", (PackageCorruption(at=0.0, rate=0.05),))
    report, injector = _campaign(sim, plan, seed=5)
    corruptions = [r for r in injector.log if r.kind == "corrupt-package"]
    assert corruptions, "5% of ~160 packages should corrupt at least once"
    assert report.completion_rate == 1.0
    node = sim.nodes[0]
    assert len(node.rpmdb) == 162
    assert node.rpmdb.verify()


# -- the acceptance campaign -----------------------------------------------

def test_default_plan_campaign_accounts_for_every_node():
    """§4's bar at Table I's 32-node point: the default plan crashes the
    install server, corrupts packages and hangs two nodes, and the
    campaign still installs at least 90% in under 6x the clean time."""
    clean = chaos_reinstall(n_nodes=32, plan="none", seed=0)
    result = chaos_reinstall(n_nodes=32, plan="default", seed=0)
    report = result.report
    assert len(report.nodes) == 32
    assert report.completion_rate >= 0.90
    assert sum(report.summary().values()) == 32
    # the render is a complete administrator-readable account
    text = report.render()
    for n in report.nodes:
        assert n.host in text
    # the injector fired: crash + repair + the two hangs
    kinds = [r.kind for r in result.injector.log]
    assert "service-fail" in kinds and "service-repair" in kinds
    assert kinds.count("node-hang") == 2
    assert clean.report.count(NodeOutcome.INSTALLED) == 32
    # chaos costs time, well inside the escalation budget
    assert 1.0 <= result.minutes / clean.minutes < 6.0


def test_abandoned_nodes_are_powered_off_and_reported():
    """A node with no PDU path and a dead Ethernet ends up ABANDONED."""
    sim = build_cluster(n_compute=2)
    sim.integrate_all()
    victim = sim.nodes[0]
    # unwire the victim's PDU outlet so escalation has nowhere to go
    pdu, outlet = sim.hardware.pdu_for(victim)
    del pdu._outlets[outlet]
    victim.hang()
    policy = EscalationPolicy(max_attempts=2, attempt_deadline=1500.0,
                              retry_pause=1.0)
    campaign = ReinstallCampaign(sim.frontend, policy)
    report = sim.env.run(until=campaign.run(sim.nodes))
    by_host = {n.host: n for n in report.nodes}
    assert by_host[victim.hostid].outcome is NodeOutcome.ABANDONED
    assert by_host[victim.hostid].error is not None
    assert by_host[sim.nodes[1].hostid].installed
    assert report.completion_rate == 0.5
