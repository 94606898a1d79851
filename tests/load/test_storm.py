"""The power-restore install storm driver and its canonical SLO report."""

import json
import os
import subprocess
import sys

import pytest

from repro.cluster import MachineState, PowerState
from repro.faults import PLANS, PowerRestore, SitePowerFailure
from repro.load import StormOptions, run_storm, slo_json
from repro.telemetry import NULL_TRACER, Tracer


def small_storm(**kw):
    defaults = dict(n_nodes=6, seed=11, deadline=2.0 * 3600.0)
    defaults.update(kw)
    return StormOptions(**defaults)


def test_the_storm_packages_load_no_http_client():
    # ``run_storm`` imports monitoring while it runs, so what monitoring
    # imports is storm time: the XML dump's quoting helper, which drags
    # in ``urllib.request``, is imported only when a dump is made.
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    script = (
        "import sys, repro.load, repro.monitoring; "
        "print(sorted({'urllib.request', 'http.client', 'email', 'ssl'}"
        " & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)), check=True,
    ).stdout
    assert out.strip() == "[]"


def test_options_validation():
    with pytest.raises(ValueError, match="node"):
        StormOptions(n_nodes=0)
    for deadline in (0.0, float("nan")):
        with pytest.raises(ValueError, match="deadline"):
            StormOptions(deadline=deadline)
    for stagger in (-5.0, float("nan")):
        with pytest.raises(ValueError, match="dhcp_stagger"):
            StormOptions(dhcp_stagger=stagger)
    assert StormOptions(dhcp_stagger=0.0).dhcp_stagger == 0.0


def test_power_restore_plan_is_registered():
    plan = PLANS["power-restore"]
    kinds = [type(f) for f in plan.faults]
    assert kinds == [SitePowerFailure, PowerRestore]
    assert plan.faults[0].at < plan.faults[1].at


def test_storm_recovers_to_stable_cluster():
    result = run_storm(small_storm())
    assert result.stable
    assert result.time_to_stable is not None and result.time_to_stable > 0
    assert all(m.state is MachineState.UP for m in result.sim.nodes)
    assert all(m.power is PowerState.ON for m in result.sim.nodes)
    rep = result.report
    assert rep["nodes_up"] == rep["n_nodes"] == 6
    # the herd actually hit the install server after the restore
    assert rep["http"]["requests"] > 0
    assert rep["http"]["p99_s"] >= rep["http"]["p50_s"] > 0


def test_storm_injector_logs_both_site_events():
    result = run_storm(small_storm())
    kinds = [rec.kind for rec in result.injector.log]
    assert "site-power-failure" in kinds
    assert "power-restore" in kinds
    failure = next(
        rec for rec in result.injector.log if rec.kind == "site-power-failure"
    )
    assert "6 nodes lost power" in failure.detail


def test_frontend_survives_the_outage():
    """The frontend is on UPS: a site power event never hard-cuts it."""
    result = run_storm(small_storm())
    assert result.sim.frontend.machine.power is PowerState.ON
    assert result.sim.frontend.machine.state is MachineState.UP


def test_slo_report_is_byte_identical_across_runs():
    opts = small_storm()
    a = run_storm(opts).slo_json()
    b = run_storm(opts).slo_json()
    assert a == b
    assert a.endswith("\n")
    # canonical form: sorted keys, no whitespace
    payload = json.loads(a)
    assert a == json.dumps(payload, sort_keys=True,
                           separators=(",", ":")) + "\n"


def test_untraced_storm_reports_what_the_traced_one_does():
    """The SLO report reads the request log, not the tracer: a run with
    no tracer records nothing and reports the same bytes.  This set-up
    sheds on the primary and on replicas the autoscaler later reaps."""
    opts = StormOptions(n_nodes=32, seed=4)
    untraced = run_storm(opts)
    traced = run_storm(opts, tracer=Tracer())
    assert untraced.slo_json() == traced.slo_json()
    assert untraced.tracer is NULL_TRACER
    assert untraced.sim.env.tracer is NULL_TRACER
    rep = untraced.report
    on_primary = untraced.sim.frontend.install_server.http.rejected
    assert 0 < on_primary < rep["shed"]["total"]
    scaler = rep["autoscaler"]
    assert scaler["peak_replicas"] > scaler["final_replicas"] == 0
    assert traced.tracer.spans("http")


def test_slo_report_shape():
    rep = run_storm(small_storm()).report
    assert rep["format"] == "repro-storm-slo"
    assert rep["version"] == 1
    assert set(rep) >= {
        "n_nodes", "seed", "autoscale", "stable", "time_to_stable_s",
        "nodes_up", "http", "shed", "autoscaler", "end_time_s",
    }
    assert set(rep["http"]) == {"requests", "p50_s", "p95_s", "p99_s", "max_s"}
    assert set(rep["shed"]) == {"total", "rate", "last_reject_after_restore_s"}
    assert set(rep["autoscaler"]) == {
        "actions", "peak_replicas", "final_replicas", "events",
    }


def test_autoscale_off_runs_without_a_scaler():
    result = run_storm(small_storm(autoscale=False))
    assert result.autoscaler is None
    assert result.report["autoscaler"]["events"] == []
    assert result.report["autoscaler"]["actions"] == 0
    assert result.report["autoscale"] is False


def test_render_mentions_the_verdict():
    result = run_storm(small_storm())
    text = result.render()
    assert "install storm: 6 nodes" in text
    assert ("stable cluster after" in text) or ("NOT stable" in text)
