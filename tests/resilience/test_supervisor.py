"""ServiceSupervisor: probing, backoff restarts, budget, escalation.

Probes come every ``PROBE_INTERVAL`` seconds; the k-th restart of an
incident waits ``RESTART_BACKOFF * BACKOFF_FACTOR**k`` seconds, stretched
by up to ``JITTER``, and a service is left degraded after
``RESTART_BUDGET`` restarts.
"""

import pytest

from repro.netsim import Environment
from repro.resilience import ServiceOutcome, ServiceSupervisor
from repro.resilience.supervisor import (
    BACKOFF_FACTOR,
    JITTER,
    PROBE_INTERVAL,
    RESTART_BACKOFF,
    RESTART_BUDGET,
)
from repro.telemetry import Tracer


class FakeService:
    """Duck-typed Faultable: running/faulted/repair()/start()."""

    def __init__(self):
        self.running = True
        self.faulted = False
        self.starts = 0
        self.repairs = 0

    def fail(self):
        self.running = False
        self.faulted = True

    def die(self):
        """A non-fault death (the daemon process just exited)."""
        self.running = False

    def repair(self):
        self.faulted = False
        self.running = True
        self.repairs += 1

    def start(self):
        self.running = True
        self.starts += 1


class StubbornService(FakeService):
    """repair() never actually brings it back — exhausts the budget."""

    def repair(self):
        self.repairs += 1


def jittered(base):
    """The band a backoff of ``base`` seconds is drawn from."""
    return pytest.approx(base * (1.0 + JITTER / 2), abs=base * JITTER / 2)


def make_supervisor(**services):
    env = Environment()
    sup = ServiceSupervisor(env)
    for name, svc in services.items():
        sup.register(name, svc)
    sup.start()
    return env, sup


def test_duplicate_registration_rejected():
    env = Environment()
    sup = ServiceSupervisor(env)
    sup.register("dhcpd", FakeService())
    with pytest.raises(ValueError, match="already supervised"):
        sup.register("dhcpd", FakeService())


def test_healthy_service_is_only_probed():
    svc = FakeService()
    env, sup = make_supervisor(dhcpd=svc)
    env.run(until=5 * PROBE_INTERVAL + 5.0)
    report = sup.report()
    assert report.probes == 5
    assert report.restarts == []
    assert report.outcomes["dhcpd"] is ServiceOutcome.HEALTHY


def test_faulted_service_is_repaired_with_backoff():
    svc = FakeService()
    env, sup = make_supervisor(httpd=svc)
    svc.fail()
    env.run(until=60.0)
    assert svc.running and not svc.faulted
    assert svc.repairs == 1 and svc.starts == 0
    report = sup.report()
    [rec] = report.restarts
    assert rec.service == "httpd"
    assert rec.attempt == 1
    assert rec.backoff == jittered(RESTART_BACKOFF)
    # the first failed probe queues the restart one backoff later
    assert rec.t == pytest.approx(PROBE_INTERVAL + rec.backoff)
    assert report.outcomes["httpd"] is ServiceOutcome.RECOVERED


def test_dead_but_unfaulted_service_is_started_not_repaired():
    svc = FakeService()
    env, sup = make_supervisor(nfs=svc)
    svc.die()
    env.run(until=40.0)
    assert svc.running
    assert svc.starts == 1 and svc.repairs == 0


def test_backoff_grows_exponentially_through_the_budget():
    """One restart per failure, each base backoff doubling: 5 s to 80 s
    over the budget of five, then the service is left degraded."""
    svc = StubbornService()
    env, sup = make_supervisor(httpd=svc)
    svc.fail()
    env.run(until=1000.0)
    backoffs = [rec.backoff for rec in sup.report().restarts]
    bases = [RESTART_BACKOFF * BACKOFF_FACTOR**k for k in range(RESTART_BUDGET)]
    assert bases[-1] == 80.0
    assert backoffs == [jittered(base) for base in bases]


def test_budget_exhaustion_escalates_to_degraded():
    svc = StubbornService()
    env = Environment()
    tracer = Tracer().attach(env)
    sup = ServiceSupervisor(env)
    sup.register("httpd", svc)
    sup.start()
    svc.fail()
    env.run(until=1000.0)
    report = sup.report()
    assert len(report.restarts) == RESTART_BUDGET  # budget, then hands off
    assert report.outcomes["httpd"] is ServiceOutcome.DEGRADED
    assert report.degraded == ["httpd"]
    assert svc.repairs == RESTART_BUDGET
    [event] = tracer.events("supervisor-degraded")
    assert event["name"] == "httpd"
    assert tracer.metrics.counter("supervisor.restarts") == RESTART_BUDGET


def test_healthy_probe_resets_the_failure_count():
    svc = FakeService()
    env, sup = make_supervisor(httpd=svc)
    svc.fail()
    env.run(until=60.0)  # repaired once
    svc.fail()
    env.run(until=120.0)  # repaired again
    backoffs = [rec.backoff for rec in sup.report().restarts]
    # second incident starts from the base backoff, not 2x
    assert backoffs == [jittered(RESTART_BACKOFF)] * 2
    assert all(rec.attempt == 1 for rec in sup.report().restarts)


def test_service_healing_during_backoff_skips_the_restart():
    svc = FakeService()
    env, sup = make_supervisor(httpd=svc)
    svc.fail()

    def heal():
        # the first probe queued a restart at least one backoff later
        yield env.timeout(PROBE_INTERVAL + RESTART_BACKOFF / 2)
        svc.repair()

    env.process(heal())
    env.run(until=60.0)
    assert sup.report().restarts == []
    assert svc.repairs == 1  # only the self-heal


def test_jitter_is_deterministic_per_seed():
    def run():
        svc = FakeService()
        env, sup = make_supervisor(httpd=svc)
        svc.fail()
        env.run(until=60.0)
        return [rec.backoff for rec in sup.report().restarts]

    assert run() == run()
    assert run() == [jittered(RESTART_BACKOFF)]


def test_on_restart_hook_runs_before_revival():
    svc = FakeService()
    seen = []
    env = Environment()
    sup = ServiceSupervisor(env)
    sup.register("httpd", svc, on_restart=lambda s: seen.append(s.running))
    sup.start()
    svc.fail()
    env.run(until=60.0)
    assert seen == [False]  # hook saw the service still down
    assert svc.running


def test_stop_halts_probing():
    svc = FakeService()
    env, sup = make_supervisor(httpd=svc)
    env.run(until=2 * PROBE_INTERVAL + 5.0)
    sup.stop()
    assert not sup.running
    svc.fail()
    env.run(until=100.0)
    assert not svc.running  # nobody restarted it
    assert sup.report().probes == 2
