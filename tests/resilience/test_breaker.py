"""Circuit breaker: the three-state machine and the GuardedSource wrapper."""

import pytest

from repro.netsim import (
    FAST_ETHERNET,
    Environment,
    HttpError,
    HttpResponse,
    HttpServer,
    LoadBalancer,
    Network,
)
from repro.resilience import BreakerState, CircuitBreaker, GuardedSource


def make_breaker(threshold=3, reset=30.0):
    env = Environment()
    return env, CircuitBreaker(
        env, "www", failure_threshold=threshold, reset_timeout=reset
    )


def advance(env, seconds):
    env.run(until=env.now + seconds)


def test_breaker_validation():
    env = Environment()
    with pytest.raises(ValueError, match="failure_threshold"):
        CircuitBreaker(env, "www", failure_threshold=0)
    with pytest.raises(ValueError, match="reset_timeout"):
        CircuitBreaker(env, "www", reset_timeout=0)


def test_closed_until_threshold_consecutive_failures():
    _, br = make_breaker(threshold=3)
    br.record_failure()
    br.record_failure()
    assert br.state is BreakerState.CLOSED
    assert br.allow()
    br.record_failure()
    assert br.state is BreakerState.OPEN


def test_success_resets_the_failure_count():
    _, br = make_breaker(threshold=2)
    br.record_failure()
    br.record_success()
    br.record_failure()
    assert br.state is BreakerState.CLOSED


def test_open_fast_fails_until_reset_timeout():
    env, br = make_breaker(threshold=1, reset=30.0)
    br.record_failure()
    assert not br.allow()
    assert not br.allow()
    assert br.fast_fails == 2
    assert br.retry_after() == pytest.approx(30.0)
    advance(env, 31.0)
    assert br.allow()  # half-open trial
    assert br.state is BreakerState.HALF_OPEN


def test_half_open_admits_a_single_trial():
    env, br = make_breaker(threshold=1, reset=10.0)
    br.record_failure()
    advance(env, 11.0)
    assert br.allow()
    assert not br.allow()  # trial already pending
    br.record_success()
    assert br.state is BreakerState.CLOSED
    assert br.allow() and br.allow()


def test_failed_trial_reopens():
    env, br = make_breaker(threshold=1, reset=10.0)
    br.record_failure()
    advance(env, 11.0)
    assert br.allow()
    br.record_failure()
    assert br.state is BreakerState.OPEN
    assert br.retry_after() == pytest.approx(10.0)


def test_retry_after_hint_stretches_the_open_interval():
    _, br = make_breaker(threshold=1, reset=10.0)
    br.record_failure(retry_after=45.0)
    assert br.state is BreakerState.OPEN
    assert br.retry_after() == pytest.approx(45.0)


# -- GuardedSource ----------------------------------------------------------


class FlakySource:
    """InstallSource stand-in that 503s the first ``fail_times`` calls."""

    def __init__(self, env, fail_times):
        self.env = env
        self.host = "www"
        self.calls = 0
        self.fail_times = fail_times

    def fetch_kickstart(self, client):
        return self._fetch()

    def _fetch(self):
        self.calls += 1
        call = self.calls
        yield self.env.timeout(1.0)
        if call <= self.fail_times:
            raise HttpError(503, "overloaded", retry_after=40.0, server="www")
        return HttpResponse(200, "/ks", 100, server="www")


def drive(env, guarded, n, gap=1.0):
    """Issue n sequential kickstart fetches; collect response/error statuses."""
    results = []

    def loop():
        for _ in range(n):
            try:
                resp = yield from guarded.fetch_kickstart("node")
                results.append(resp.status)
            except HttpError as err:
                results.append(err)
            yield env.timeout(gap)

    env.run(until=env.process(loop()))
    return results


def test_guarded_source_opens_after_threshold_and_fast_fails():
    env = Environment()
    source = FlakySource(env, fail_times=100)
    guarded = GuardedSource(env, source, failure_threshold=2, reset_timeout=60.0)
    results = drive(env, guarded, 4)
    assert all(isinstance(r, HttpError) for r in results)
    # only the first two hit the network; the rest failed locally
    assert source.calls == 2
    br = guarded.breaker("www")
    assert br.state is BreakerState.OPEN
    assert br.fast_fails == 2
    assert "circuit open" in results[2].reason
    assert results[2].retry_after == pytest.approx(br.retry_after(), abs=3.0)


def test_guarded_source_recovers_through_half_open_trial():
    env = Environment()
    source = FlakySource(env, fail_times=2)
    guarded = GuardedSource(env, source, failure_threshold=2, reset_timeout=5.0)
    # 2 real failures open it; the 503's own Retry-After (40s) stretches
    # the hold past the static 5s reset.
    results = drive(env, guarded, 3, gap=45.0)
    assert results[-1] == 200
    assert guarded.breaker("www").state is BreakerState.CLOSED


def test_guarded_source_counts_4xx_as_proof_of_life():
    env = Environment()

    class NotFoundSource(FlakySource):
        def _fetch(self):
            self.calls += 1
            yield self.env.timeout(1.0)
            raise HttpError(404, "missing", server="www")

    guarded = GuardedSource(env, NotFoundSource(env, 0), failure_threshold=1)
    results = drive(env, guarded, 3)
    assert all(r.status == 404 for r in results)
    assert guarded.breaker("www").state is BreakerState.CLOSED


def test_guarded_source_forwards_trace_context_only_when_given():
    env = Environment()

    class PackageSource:
        """A duck-typed source: one fetch takes no ``parent``."""

        host = "www"

        def __init__(self):
            self.calls = []

        def fetch_package(self, client, dist_name, pkg, max_rate=None):
            self.calls.append((client, dist_name, pkg, max_rate))
            return self._serve()

        def fetch_kickstart(self, client, parent=None):
            self.calls.append((client, parent))
            return self._serve()

        def _serve(self):
            yield env.timeout(1.0)
            return HttpResponse(200, "/p", 10, server="www")

    source = PackageSource()
    guarded = GuardedSource(env, source)
    resp = env.run(until=env.process(
        guarded.fetch_package("node", "d", "pkg", max_rate=7.5)))
    assert resp.status == 200
    env.run(until=env.process(guarded.fetch_kickstart("node", parent="span")))
    assert source.calls == [("node", "d", "pkg", 7.5), ("node", "span")]
    assert guarded.breaker("www").state is BreakerState.CLOSED


def test_guarded_load_balancer_routes_around_open_backend():
    env = Environment()
    network = Network(env)
    servers = []
    for i in range(2):
        network.attach(f"www{i}", FAST_ETHERNET)
        s = HttpServer(network, f"www{i}")
        s.publish("/pkg", 1000)
        servers.append(s)
    network.attach("client", FAST_ETHERNET)
    lb = LoadBalancer(servers)
    guarded = GuardedSource(env, lb, failure_threshold=1)
    assert lb.should_avoid is not None  # hook installed on balancers
    guarded.breaker("www0").record_failure()  # force www0 open
    for _ in range(3):
        resp = env.run(until=env.process(lb.get("client", "/pkg")))
        assert resp.server == "www1"
    assert servers[0].requests_served == 0
