"""chaos_reinstall driver: plan resolution, result surface, hardening."""

from repro.faults import (
    PLANS,
    FaultPlan,
    FrontendCrash,
    LinkFlap,
    NodeHang,
    chaos_reinstall,
)
from repro.resilience import FrontendResilience


def test_plan_name_is_resolved_and_reseeded():
    result = chaos_reinstall(n_nodes=1, plan="none", seed=11)
    assert result.plan.name == "none"
    assert result.plan.seed == 11
    assert result.n_nodes == 1


def test_plan_instance_is_reseeded_too():
    plan = FaultPlan("mine", (NodeHang(at=300.0, node=0),), seed=0)
    result = chaos_reinstall(n_nodes=2, plan=plan, seed=9)
    assert result.plan.seed == 9
    assert result.plan.name == "mine"


def test_result_surface_matches_the_report():
    result = chaos_reinstall(n_nodes=2, plan="none")
    assert result.minutes == result.report.minutes
    assert result.completion_rate == result.report.completion_rate == 1.0
    assert result.resilience is None
    text = result.render()
    assert "injection log" in text
    assert "compute-0-0" in text


def test_resilience_true_applies_the_default_options():
    result = chaos_reinstall(n_nodes=1, plan="none", resilience=True)
    assert isinstance(result.resilience, FrontendResilience)
    assert result.resilience.journal is not None
    assert result.resilience.supervisor is not None
    assert "journal:" in result.render()


def test_frontend_storm_combined_escalation():
    """Crash + link flaps + a node hang in one run: the supervisor, the
    journal replay, and the campaign's PDU ladder all fire together."""
    assert "frontend-storm" in PLANS
    plan = PLANS["frontend-storm"]
    kinds = {type(f) for f in plan.faults}
    assert kinds == {FrontendCrash, LinkFlap, NodeHang}
    result = chaos_reinstall(n_nodes=6, plan="frontend-storm", seed=1,
                             resilience=True)
    assert result.completion_rate == 1.0
    log_kinds = {r.kind for r in result.injector.log}
    assert {"frontend-crash", "link-down", "link-up", "node-hang"} <= log_kinds
    assert result.resilience.verify_recovery()
    frontend = result.resilience.frontend
    assert frontend.recovered_snapshot == result.injector.snapshots[0]


def test_campaign_state_transitions_are_journaled():
    result = chaos_reinstall(n_nodes=2, plan="none", resilience=True)
    journal = result.resilience.journal
    globals_set = [
        r["args"] for r in journal.records() if r["op"] == "set-global"
    ]
    campaign_steps = [a for a in globals_set if a["service"] == "campaign"]
    values = {a["value"] for a in campaign_steps}
    assert "installing" in values and "installed" in values
    db = result.resilience.frontend.db
    for node in db.compute_nodes():
        assert db.get_global("campaign", node.name) == "installed"
