"""Hardened installer hot paths: timeouts, backoff, checksums, DHCP verdict."""

import dataclasses

import pytest

from repro import build_cluster
from repro.cluster import MachineState
from repro.installer import (
    DEFAULT_CALIBRATION,
    InstallCalibration,
    InstallError,
    fetch_with_retry,
)
from repro.netsim import (
    Environment,
    HttpError,
    HttpResponse,
    HttpServer,
    Network,
)

CAL = InstallCalibration(
    download_timeout_seconds=5.0,
    download_max_attempts=3,
    download_backoff_seconds=2.0,
)


def _drive(env, gen):
    """Run a fetch_with_retry generator to completion; return its value."""
    box = {}

    def wrap():
        box["value"] = yield from gen
    proc = env.process(wrap())
    env.run(until=proc)
    return box["value"]


def _resp(checksum=""):
    return HttpResponse(status=200, path="/pkg", size=1.0, checksum=checksum)


def _http_rig():
    """A 1000 B/s server and client: a 5000-byte GET takes exactly 5 s."""
    env = Environment()
    net = Network(env)
    for host in ("www", "node", "a", "b"):
        net.attach(host, 1000.0)
    server = HttpServer(net, "www", efficiency=1.0)
    server.publish("/big", 5000.0)
    server.publish("/small", 1000.0)
    return env, net, server


def test_backoff_schedule_is_exponential():
    assert [CAL.download_backoff(a) for a in (1, 2, 3, 4)] == [2.0, 4.0, 8.0, 16.0]


def test_timeout_then_bounded_giveup_timing():
    """Stalled fetches: timeout at 5s, backoffs 2s and 4s, fail at t=21."""
    env = Environment()

    def stalled():
        yield env.timeout(1000.0)

    gen = fetch_with_retry(env, stalled, CAL, "pkg")
    with pytest.raises(InstallError, match="giving up after 3 attempts"):
        _drive(env, gen)
    # (5s timeout + 2s backoff) + (5 + 4) + 5 = 21 simulated seconds
    assert env.now == pytest.approx(21.0)


def test_transient_errors_are_retried_until_success():
    env = Environment()
    calls = []

    def fetch():
        calls.append(env.now)
        if len(calls) < 3:
            raise HttpError(503, "service unavailable")
            yield  # pragma: no cover - makes this a generator
        yield env.timeout(1.0)
        return _resp()

    stats = {}
    gen = fetch_with_retry(
        env, fetch, CAL, "pkg", stats=stats
    )
    resp = _drive(env, gen)
    assert resp.status == 200
    assert stats["retries"] == 2
    # failures at t=0 and t=2 (after the 2s backoff), success attempt at 6
    assert calls == pytest.approx([0.0, 2.0, 6.0])


def test_corrupt_payload_is_refetched():
    env = Environment()
    served = iter(["corrupt:aaaa", "deadbeef"])

    def fetch():
        yield env.timeout(1.0)
        return _resp(checksum=next(served))

    stats = {}
    gen = fetch_with_retry(
        env,
        fetch,
        CAL,
        "pkg",
        expect_checksum="deadbeef",
        stats=stats,
    )
    resp = _drive(env, gen)
    assert resp.checksum == "deadbeef"
    assert stats["corrupt"] == 1
    assert stats["retries"] == 1


def test_unverifiable_response_passes_without_checksum():
    """Empty server-side checksum means no verification (balanced sources)."""
    env = Environment()

    def fetch():
        yield env.timeout(1.0)
        return _resp(checksum="")

    gen = fetch_with_retry(
        env, fetch, CAL, "pkg", expect_checksum="deadbeef"
    )
    assert _drive(env, gen).status == 200


def test_persistent_corruption_exhausts_attempts():
    env = Environment()

    def fetch():
        yield env.timeout(1.0)
        return _resp(checksum="corrupt:bad")

    gen = fetch_with_retry(
        env, fetch, CAL, "pkg", expect_checksum="good"
    )
    with pytest.raises(InstallError, match="checksum mismatch"):
        _drive(env, gen)


def test_non_retriable_error_propagates_immediately():
    env = Environment()

    def fetch():
        raise ValueError("bug in the CGI")
        yield  # pragma: no cover - makes this a generator

    gen = fetch_with_retry(env, fetch, CAL, "pkg")
    with pytest.raises(ValueError, match="bug in the CGI"):
        _drive(env, gen)
    assert env.now == 0.0  # no retries were attempted


def test_dhcp_max_attempts_yields_failure_verdict():
    """A dead dhcpd hangs the node with a DHCP diagnosis, not forever."""
    cal = dataclasses.replace(
        DEFAULT_CALIBRATION, dhcp_max_attempts=3, dhcp_retry_seconds=5.0
    )
    sim = build_cluster(n_compute=1, calibration=cal)
    sim.integrate_all()
    node = sim.nodes[0]
    sim.frontend.dhcp.fail()
    node.request_reinstall()
    sim.env.run(until=node.wait_for_state(MachineState.HUNG))
    assert any("DHCP: no answer after 3 attempts" in line for line in node.console)


def test_clean_install_reports_zero_retries():
    sim = build_cluster(n_compute=1)
    sim.integrate_all()
    report = sim.frontend.installer.reports[-1]
    assert report.download_retries == 0
    assert report.corrupt_refetches == 0


def test_server_outage_shows_up_in_install_report_counters():
    """A mid-install crash+repair is visible as retries in the report."""
    sim = build_cluster(n_compute=1)
    sim.integrate_all()
    node = sim.nodes[0]
    node.request_reinstall()
    sim.env.run(until=node.wait_for_state(MachineState.INSTALLING))
    sim.env.run(until=sim.env.now + 200)  # mid package pull
    sim.frontend.install_server.fail()
    sim.env.run(until=sim.env.now + 20)
    sim.frontend.install_server.repair()
    sim.env.run(until=node.wait_for_state(MachineState.UP))
    report = sim.frontend.installer.reports[-1]
    assert report.download_retries > 0
    assert len(node.rpmdb) == 162


def test_won_fetch_never_dispatches_its_deadline():
    """The 300-s deadline of a fetch that won is cancelled, not fired."""
    env, _, server = _http_rig()
    gen = fetch_with_retry(
        env, lambda: server.get("node", "/small"), DEFAULT_CALIBRATION, "pkg"
    )
    assert _drive(env, gen).path == "/small"
    env.run(until=1.0)  # the driver's own completion
    dispatched = env.events_dispatched
    env.run()  # drain the queue across t = 300 s
    assert env.events_dispatched == dispatched


def test_power_off_mid_fetch_cancels_its_flow_and_its_deadline():
    """Power loss mid-transfer frees the link; no deadline fires later."""
    env, net, server = _http_rig()
    proc = env.process(fetch_with_retry(
        env, lambda: server.get("node", "/big"), DEFAULT_CALIBRATION, "pkg"
    ))
    env.run(until=1.0)
    assert net.flows.flows_through(server.service_link)
    proc.interrupt("power removed")  # what Machine.power_off delivers
    env.run(until=1.0)
    assert not proc.is_alive
    assert not net.flows.flows_through(server.service_link)
    env.run(until=5.0)  # the flow's superseded wake-up
    dispatched = env.events_dispatched
    env.run()  # past the 300-s deadline: nothing left to dispatch
    assert env.events_dispatched == dispatched
    assert server.requests_served == 0


@pytest.mark.parametrize("order", ["deadline-first", "completion-first"])
def test_deadline_and_completion_at_the_same_instant(order):
    """A transfer ending exactly at its deadline has one outcome: a timeout.

    The deadline wins a tie unless the fetch already returned, whichever
    of the two is dispatched first, and the retry waits its full backoff.
    """
    env, net, server = _http_rig()
    if order == "completion-first":
        # Its wakeup at t = 5 predates the deadline, so the GET's flow
        # lands in that same wakeup, before the deadline is dispatched.
        net.flows.transfer(net.path("a", "b"), 5000.0)
    paths = ["/big", "/small"]
    starts = []

    def fetch():
        starts.append(env.now)
        return server.get("node", paths[len(starts) - 1])

    stats = {}
    gen = fetch_with_retry(env, fetch, CAL, "pkg", stats=stats)
    resp = _drive(env, gen)
    # /big times out at t = 5; /small starts after the 2-s backoff
    assert starts == [0.0, 7.0]
    assert resp.path == "/small"
    assert env.now == pytest.approx(8.0)
    assert stats == {"retries": 1}
    assert server.requests_served == 1
    env.run()  # no stray wake-up or interrupt is left behind
