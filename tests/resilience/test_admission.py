"""HTTP admission control: cap, bounded queue, shedding, telemetry.

The cap, queue and hint are the module constants: ``MAX_CONCURRENT``
requests in flight and ``QUEUE_LIMIT`` queued, so the request after
``FULL`` of them is shed.  A document of ``FAST_ETHERNET`` bytes takes
1 s to serve alone and ``MAX_CONCURRENT`` seconds with every slot
busy, well inside ``QUEUE_TIMEOUT``.
"""

from collections import Counter

import pytest

from repro.netsim import (
    FAST_ETHERNET,
    Environment,
    HostDown,
    HttpError,
    HttpServer,
    Network,
    TransferAborted,
)
from repro.netsim.http import (
    MAX_CONCURRENT,
    QUEUE_LIMIT,
    QUEUE_TIMEOUT,
    RETRY_AFTER,
    RETRY_JITTER,
)
from repro.telemetry import Tracer

#: requests the server holds at once: in flight plus queued
FULL = MAX_CONCURRENT + QUEUE_LIMIT
#: the band every shed response's Retry-After falls in
HINT_BAND = (RETRY_AFTER, RETRY_AFTER * (1.0 + RETRY_JITTER))


def make_http(n_clients=4, tracer=None, admission_seed=None):
    env = Environment()
    if tracer is not None:
        tracer.attach(env)
    network = Network(env)
    network.attach("www", FAST_ETHERNET)
    for i in range(n_clients):
        network.attach(f"c{i}", FAST_ETHERNET)
    server = HttpServer(network, "www", efficiency=1.0)
    if admission_seed is not None:
        server.configure_admission(admission_seed)
    return env, server


def fetch(env, server, client, path, results):
    """GET wrapper recording the response or the HttpError."""
    try:
        resp = yield from server.get(client, path)
        results.append(resp)
    except HttpError as err:
        results.append(err)


def test_admission_is_off_by_default():
    env, server = make_http()
    assert server.admission_seed is None
    server.publish("/x", 100)
    resp = env.run(until=env.process(server.get("c0", "/x")))
    assert resp.status == 200
    # the fast path never touches the slot accounting
    assert server.in_flight == 0 and server.queue_depth == 0
    assert server.rejected == 0


def test_cap_bounds_in_flight_and_queues_the_rest():
    n = MAX_CONCURRENT + 2
    env, server = make_http(n, admission_seed=0)
    server.publish("/pkg", FAST_ETHERNET)
    results = []
    for i in range(n):
        env.process(fetch(env, server, f"c{i}", "/pkg", results))
    env.run(until=0.5)
    assert server.in_flight == MAX_CONCURRENT
    assert server.queue_depth == 2
    env.run()
    assert [r.status for r in results] == [200] * n
    assert server.rejected == 0
    assert server.requests_served == n


def test_full_queue_sheds_503_with_retry_after():
    env, server = make_http(FULL + 1, admission_seed=0)
    server.publish("/pkg", FAST_ETHERNET)
    results = []
    for i in range(FULL + 1):
        env.process(fetch(env, server, f"c{i}", "/pkg", results))
    env.run(until=0.5)
    # the last request found every slot busy and the queue full
    [shed] = [r for r in results if isinstance(r, HttpError)]
    assert shed.status == 503
    assert "queue-full" in shed.reason
    assert HINT_BAND[0] <= shed.retry_after <= HINT_BAND[1]
    assert shed.server == "www"
    assert server.rejected == 1
    env.run()
    assert sum(1 for r in results if getattr(r, "status", 0) == 200) == FULL


def test_queue_wait_times_out():
    n = MAX_CONCURRENT + 1
    env, server = make_http(n, admission_seed=0)
    # every slot's transfer outlasts the queue wait
    server.publish("/pkg", FAST_ETHERNET * 60)
    results = []
    for i in range(n):
        env.process(fetch(env, server, f"c{i}", "/pkg", results))
    env.run(until=QUEUE_TIMEOUT + 5.0)
    [shed] = [r for r in results if isinstance(r, HttpError)]
    assert shed.status == 503
    assert "queue-timeout" in shed.reason
    assert server.rejected == 1
    assert server.queue_depth == 0  # the timed-out slot was removed
    env.run()
    assert server.requests_served == MAX_CONCURRENT


def test_slot_released_on_error_paths_too():
    env, server = make_http(admission_seed=0)
    results = []
    env.process(fetch(env, server, "c0", "/missing", results))
    env.run()
    assert results[0].status == 404
    assert server.in_flight == 0  # the 404 released its admitted slot


def test_daemon_death_flushes_the_queue():
    n = MAX_CONCURRENT + 2
    env, server = make_http(n, admission_seed=0)
    server.publish("/pkg", FAST_ETHERNET * 60)
    results = []

    def fetch_any(client):
        try:
            resp = yield from server.get(client, "/pkg")
            results.append(resp)
        except (HttpError, TransferAborted) as err:
            results.append(err)

    for i in range(n):
        env.process(fetch_any(f"c{i}"))

    def kill():
        yield env.timeout(2.0)
        server.running = False
        server.abort_transfers()

    env.process(kill())
    env.run()
    assert len(results) == n
    # the in-flight transfers are reset; both queued slots are flushed 503s
    aborted = [r for r in results if isinstance(r, TransferAborted)]
    assert len(aborted) == MAX_CONCURRENT
    flushed = [r for r in results if isinstance(r, HttpError)]
    assert len(flushed) == 2
    assert all(e.status == 503 and "connection reset" in e.reason
               for e in flushed)
    assert server.queue_depth == 0


def test_a_client_lost_while_queued_fails_when_its_slot_comes():
    # The route is looked up again once the queue wait ends, so a client
    # that went down meanwhile gets no transfer, and its slot is freed.
    n = MAX_CONCURRENT + 1
    env, server = make_http(n, admission_seed=0)
    server.publish("/pkg", FAST_ETHERNET)
    results = []
    for i in range(n - 1):
        env.process(fetch(env, server, f"c{i}", "/pkg", results))
    lost = []

    def queued():
        try:
            yield from server.get(f"c{n - 1}", "/pkg")
        except HostDown as err:
            lost.append(err)

    env.process(queued())
    env.run(until=0.5)
    assert server.queue_depth == 1
    server.network.set_host_up(f"c{n - 1}", False)
    env.run()
    assert len(lost) == 1 and len(results) == n - 1
    assert server.in_flight == 0 and server.queue_depth == 0
    assert server.requests_served == n - 1


def test_reconfigure_with_queued_requests_rejected():
    n = MAX_CONCURRENT + 1
    env, server = make_http(n, admission_seed=0)
    server.publish("/pkg", FAST_ETHERNET * 60)
    results = []
    for i in range(n):
        env.process(fetch(env, server, f"c{i}", "/pkg", results))

    def reconfigure():
        yield env.timeout(1.0)
        with pytest.raises(RuntimeError, match="queued"):
            server.configure_admission(None)

    done = env.process(reconfigure())
    env.run(until=done)


def test_queue_depth_gauge_and_reject_counter():
    tracer = Tracer()
    n = FULL + 2
    env, server = make_http(n, tracer=tracer, admission_seed=0)
    server.publish("/pkg", FAST_ETHERNET)
    results = []
    for i in range(n):
        env.process(fetch(env, server, f"c{i}", "/pkg", results))
    env.run()
    metrics = tracer.metrics
    assert metrics.peak("http.queue_depth/www") <= QUEUE_LIMIT
    assert metrics.counter("http.rejected/www") == server.rejected > 0
    rejects = tracer.events("http-reject")
    assert len(rejects) == server.rejected
    assert all(e["attrs"]["cause"] == "queue-full" for e in rejects)
    # everyone not shed was eventually served
    assert server.requests_served == n - server.rejected


def test_traced_counters_are_the_servers_own_totals():
    """Served, queue-full, queue-timeout and daemon-kill paths each count once."""
    tracer = Tracer()
    n = FULL + 3
    env, server = make_http(n, tracer=tracer, admission_seed=0)
    server.publish("/pkg", FAST_ETHERNET)
    server.publish("/slow", FAST_ETHERNET * 600)
    results = []

    def get_at(t, client, path):
        yield env.timeout(t)
        try:
            results.append((yield from server.get(client, path)))
        except (HttpError, TransferAborted) as err:
            results.append(err)

    clients = iter(f"c{i}" for i in range(n))
    env.process(get_at(0.0, next(clients), "/pkg"))  # served by t=1
    for _ in range(MAX_CONCURRENT):  # hold every slot
        env.process(get_at(2.0, next(clients), "/slow"))
    for _ in range(QUEUE_LIMIT):  # queued, time out at t=3+QUEUE_TIMEOUT
        env.process(get_at(3.0, next(clients), "/pkg"))
    env.process(get_at(4.0, next(clients), "/pkg"))  # the queue is full: shed
    flushed_at = 3.0 + QUEUE_TIMEOUT + 5.0
    env.process(get_at(flushed_at, next(clients), "/pkg"))  # queued...

    def kill():  # ...and flushed by the kill
        yield env.timeout(flushed_at + 1.0)
        server.running = False
        server.abort_transfers()

    env.process(kill())
    env.run()
    assert len(results) == n
    stats = server.admission_stats()
    assert stats["requests_served"] == 1
    assert stats["rejected"] == QUEUE_LIMIT + 2
    assert stats["queue_timeouts"] == QUEUE_LIMIT
    assert tracer.metrics.counters == {
        "http.requests/www": stats["requests_served"],
        "http.bytes/www": stats["bytes_served"],
        "http.rejected/www": stats["rejected"],
        "http.queue_timeouts/www": stats["queue_timeouts"],
    }
    rejects = tracer.events("http-reject")
    assert len(rejects) == stats["rejected"]
    assert Counter(e["attrs"]["cause"] for e in rejects) == {
        "connection reset": 1, "queue-full": 1, "queue-timeout": QUEUE_LIMIT,
    }


def test_a_server_built_before_the_tracer_is_not_exported():
    """Its totals live in a private dict: the trace shows none of them."""
    env, server = make_http()
    Tracer().attach(env)
    server.publish("/x", 100)
    env.run(until=env.process(server.get("c0", "/x")))
    assert server.requests_served == 1
    assert env.tracer.metrics.counters == {}


def test_admission_stats_snapshot():
    """The first-class gauge view monitoring agents sample."""
    n = FULL + 4
    env, server = make_http(n, admission_seed=0)
    server.publish("/pkg", FAST_ETHERNET)
    stats = server.admission_stats()
    assert stats == {
        "in_flight": 0,
        "queue_depth": 0,
        "rejected": 0,
        "queue_timeouts": 0,
        "requests_served": 0,
        "bytes_served": 0.0,
    }
    results = []
    for i in range(n):
        env.process(fetch(env, server, f"c{i}", "/pkg", results))
    env.run(until=1.0)
    mid = server.admission_stats()
    assert mid["in_flight"] == MAX_CONCURRENT
    assert mid["queue_depth"] == QUEUE_LIMIT
    assert mid["rejected"] == 4
    env.run()
    done = server.admission_stats()
    assert done["in_flight"] == 0 and done["queue_depth"] == 0
    assert done["requests_served"] == FULL
    assert done["bytes_served"] == pytest.approx(FAST_ETHERNET * FULL)
    # the snapshot mirrors the first-class properties exactly
    assert done["rejected"] == server.rejected
    assert done["queue_timeouts"] == server.queue_timeouts


def test_in_flight_gauge_tracks_grants_and_releases():
    tracer = Tracer()
    n = MAX_CONCURRENT + 2
    env, server = make_http(n, tracer=tracer, admission_seed=0)
    server.publish("/pkg", FAST_ETHERNET)
    results = []
    for i in range(n):
        env.process(fetch(env, server, f"c{i}", "/pkg", results))
    env.run()
    assert server.requests_served == n
    samples = [v for _, v in tracer.metrics.samples("http.in_flight/www")]
    assert max(samples) == MAX_CONCURRENT  # the cap was reached...
    assert samples[-1] == 0   # ...and fully released at the end


# -- seeded Retry-After jitter ------------------------------------------------


def shed_hints(seed=0, n=12):
    """Fill every slot and the queue, shed n requests, return their hints."""
    env, server = make_http(FULL + n, admission_seed=seed)
    server.publish("/slow", FAST_ETHERNET * 600)
    for i in range(FULL):
        env.process(server.get(f"c{i}", "/slow"))
    results = []
    for i in range(n):
        env.process(fetch(env, server, f"c{FULL + i}", "/pkg", results))
    env.run(until=1.0)
    assert len(results) == n
    assert all(isinstance(r, HttpError) and r.status == 503 for r in results)
    return [r.retry_after for r in results]


def test_jitter_spreads_hints_within_the_advertised_band():
    hints = shed_hints()
    assert all(HINT_BAND[0] <= h <= HINT_BAND[1] for h in hints)
    assert len(set(hints)) > 1  # the herd is actually spread


def test_jitter_is_deterministic_in_the_seed():
    assert shed_hints(seed=7) == shed_hints(seed=7)
    assert shed_hints(seed=7) != shed_hints(seed=8)


def test_queue_timeout_sheds_carry_jittered_hints_too():
    env, server = make_http(MAX_CONCURRENT + 2, admission_seed=3)
    server.publish("/slow", FAST_ETHERNET * 600)
    for i in range(MAX_CONCURRENT):
        env.process(server.get(f"c{i}", "/slow"))
    results = []
    for i in range(2):
        env.process(
            fetch(env, server, f"c{MAX_CONCURRENT + i}", "/pkg", results))
    env.run(until=QUEUE_TIMEOUT + 5.0)
    assert len(results) == 2
    assert server.queue_timeouts == 2
    assert all(HINT_BAND[0] <= r.retry_after <= HINT_BAND[1] for r in results)
