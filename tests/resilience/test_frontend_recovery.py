"""End-to-end frontend-crash recovery: the PR's acceptance scenario.

A 32-node Table I reinstall wave is interrupted by a ``FrontendCrash``
that kills dhcpd/httpd/nfs and wipes the live cluster database.  The
hardened stack (supervisor + journal + breaker) must restart the
services, replay the journal to a byte-identical database, and still
land every node installed — deterministically.
"""

import pytest

from repro import build_cluster
from repro.core.tools import ReinstallCampaign
from repro.faults import chaos_reinstall
from repro.netsim.http import QUEUE_LIMIT
from repro.resilience import harden_frontend
from repro.telemetry import Tracer, to_jsonl


@pytest.fixture(scope="module")
def crash_run():
    return chaos_reinstall(n_nodes=32, plan="frontend-crash", resilience=True)


def test_every_node_completes_despite_the_crash(crash_run):
    assert crash_run.completion_rate == 1.0
    assert len(crash_run.report.nodes) == 32
    kinds = [r.kind for r in crash_run.injector.log]
    assert "frontend-crash" in kinds


def test_supervisor_restarted_the_dead_services(crash_run):
    resilience = crash_run.resilience
    report = resilience.supervisor_report()
    assert report.restarts, "the crash must have triggered restarts"
    restarted = {rec.service for rec in report.restarts}
    assert restarted <= {"dhcpd", "httpd", "nfs"}
    assert not report.degraded
    assert resilience.verify_recovery()


def test_recovered_database_is_byte_identical(crash_run):
    frontend = crash_run.resilience.frontend
    # the injector snapshots the DB immediately before wiping it
    assert crash_run.injector.snapshots, "crash fault must snapshot first"
    assert frontend.recovered_snapshot is not None
    assert frontend.recovered_snapshot == crash_run.injector.snapshots[0]
    assert not frontend.db_lost
    assert crash_run.resilience.journal.replays == 1
    # and the live DB still holds every node registration
    assert len(frontend.db.compute_nodes()) == 32


def test_unhardened_frontend_stays_down():
    """Without resilience the same plan strands the whole wave."""
    result = chaos_reinstall(n_nodes=2, plan="frontend-crash")
    assert result.resilience is None
    assert result.completion_rate == 0.0


def test_same_seed_runs_export_identical_telemetry():
    def run():
        tracer = Tracer()
        chaos_reinstall(
            n_nodes=8, plan="frontend-storm", seed=7,
            resilience=True, tracer=tracer,
        )
        return tracer

    a, b = run(), run()
    assert to_jsonl(a) == to_jsonl(b)
    assert a.metrics.counters == b.metrics.counters


def test_admission_evidence_under_a_wave_above_the_cap():
    """A wave above the cap and the queue: 503s are shed with Retry-After,
    the installer honors the hint, the queue stays bounded, and the wave
    still lands."""
    tracer = Tracer()
    # Boot jitter spreads the fetches: a wave of MAX_CONCURRENT +
    # QUEUE_LIMIT + 2 = 16 nodes is never shed, one of 20 is.
    sim = build_cluster(n_compute=20, tracer=tracer)
    sim.integrate_all()
    http = sim.frontend.install_server.http
    http.configure_admission(0)
    harden_frontend(sim.frontend)
    campaign = ReinstallCampaign(sim.frontend)
    report = sim.env.run(until=campaign.run(sim.nodes))
    assert report.completion_rate == 1.0
    metrics = tracer.metrics
    assert http.rejected > 0
    assert metrics.counter(f"http.rejected/{http.host}") == http.rejected
    assert metrics.counter("install.retry_after_honored") > 0
    assert metrics.peak(f"http.queue_depth/{http.host}") <= QUEUE_LIMIT
    assert http.in_flight == 0 and http.queue_depth == 0
    rejects = tracer.events("http-reject")
    assert len(rejects) == http.rejected


def test_zero_overhead_defaults_match_the_stock_run():
    """An unhardened run is byte-for-byte the PR 2 baseline."""

    def table1(harden):
        tracer = Tracer()
        chaos_reinstall(
            n_nodes=4, plan="none",
            resilience=harden,
            tracer=tracer,
        )
        return tracer

    stock, hardened = table1(False), table1(True)
    # install spans (the Table I numbers) are identical: the resilience
    # layer adds observation, not perturbation, when nothing fails
    stock_installs = [
        (s.name, s.t0, s.t1) for s in stock.spans("install")
    ]
    hard_installs = [
        (s.name, s.t0, s.t1) for s in hardened.spans("install")
    ]
    assert stock_installs == hard_installs
