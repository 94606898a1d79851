"""Same-seed monitored campaigns must be byte-identical, faults and all."""

import json

import pytest

from repro.faults import chaos_reinstall


def _run(plan, **kwargs):
    result = chaos_reinstall(n_nodes=8, plan=plan, seed=11, monitoring=True,
                             **kwargs)
    stack = result.monitoring
    return stack.export_json(), stack.engine.signature(), result


@pytest.mark.parametrize(
    "plan,kwargs",
    [
        ("frontend-crash", {"resilience": True}),
        ("chaos", {}),
    ],
)
def test_same_seed_runs_export_identical_bytes(plan, kwargs):
    export_a, sig_a, _ = _run(plan, **kwargs)
    export_b, sig_b, _ = _run(plan, **kwargs)
    assert export_a == export_b  # raw bytes, not just equal structures
    assert sig_a == sig_b


def test_chaos_plan_fires_three_distinct_alert_kinds():
    _, _, result = _run("chaos")
    kinds = result.monitoring.engine.kinds_fired()
    assert len(kinds) >= 3
    assert {"node-down", "service-down", "link-saturated"} <= set(kinds)
    # every fired alert eventually cleared: the campaign converged
    assert result.completion_rate == 1.0
    assert result.monitoring.engine.active() == []


def test_export_carries_series_and_alert_log():
    export, _, result = _run("chaos")
    # canonical form: compact separators, sorted keys, one trailing newline
    assert export.endswith("}\n")
    assert ": " not in export and ", " not in export
    doc = json.loads(export)
    assert doc["format"] == "repro-monitor"
    assert doc["packets"]["received"] > 0
    assert doc["packets"]["received"] <= doc["packets"]["sent"]
    assert "frontend-0/svc.install" in doc["series"]
    assert "compute-0-0/load" in doc["series"]
    statuses = {rec["status"] for rec in doc["alerts"]}
    assert statuses == {"fired", "cleared"}


def test_monitored_campaign_timeline_matches_unmonitored():
    """Monitoring is observational: it never perturbs the simulation."""
    plain = chaos_reinstall(n_nodes=8, plan="chaos", seed=11)
    monitored = chaos_reinstall(n_nodes=8, plan="chaos", seed=11,
                                monitoring=True)
    assert monitored.report.render() == plain.report.render()
    assert monitored.injector.signature() == plain.injector.signature()
