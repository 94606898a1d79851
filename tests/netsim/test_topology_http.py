"""Tests for the topology and HTTP layers."""

from collections import Counter

import pytest

from repro.netsim import (
    FAST_ETHERNET,
    GIGABIT_ETHERNET,
    MBIT,
    Environment,
    HostDown,
    HttpError,
    HttpServer,
    Interrupt,
    LoadBalancer,
    Network,
    RequestLog,
    TransferAborted,
)
from repro.netsim.http import MAX_CONCURRENT, QUEUE_LIMIT, QUEUE_TIMEOUT
from repro.telemetry import Tracer


@pytest.fixture
def net():
    env = Environment()
    network = Network(env)
    return env, network


def test_attach_and_lookup(net):
    _, network = net
    network.attach("frontend-0", FAST_ETHERNET)
    assert network.host("frontend-0").speed == FAST_ETHERNET
    assert network.has_host("frontend-0")
    assert not network.has_host("compute-0-0")


def test_duplicate_host_rejected(net):
    _, network = net
    network.attach("a")
    with pytest.raises(ValueError):
        network.attach("a")


def test_unknown_host_lookup_raises(net):
    _, network = net
    with pytest.raises(KeyError, match="nonesuch"):
        network.host("nonesuch")


def test_send_between_hosts_bottlenecked_by_slower_nic(net):
    env, network = net
    network.attach("server", GIGABIT_ETHERNET)
    network.attach("client", FAST_ETHERNET)
    flow = network.send("server", "client", FAST_ETHERNET * 10)
    env.run(until=flow.done)
    assert env.now == pytest.approx(10.0)


def test_host_down_blocks_send(net):
    _, network = net
    network.attach("a")
    network.attach("b")
    network.set_host_up("b", False)
    assert not network.reachable("a", "b")
    with pytest.raises(HostDown):
        network.send("a", "b", 100)


def test_taking_host_down_aborts_inflight(net):
    env, network = net
    network.attach("a")
    network.attach("b")
    flow = network.send("a", "b", FAST_ETHERNET * 100)

    def chaos():
        yield env.timeout(1.0)
        network.set_host_up("b", False)

    def waiter():
        with pytest.raises(TransferAborted):
            yield flow.done
        return True

    env.process(chaos())
    assert env.run(until=env.process(waiter()))


def test_concurrent_clients_share_server_uplink(net):
    env, network = net
    network.attach("server", FAST_ETHERNET)
    for i in range(4):
        network.attach(f"c{i}", FAST_ETHERNET)
    flows = [
        network.send("server", f"c{i}", FAST_ETHERNET * 2.5) for i in range(4)
    ]
    env.run()
    # 4 clients split the server tx link: each gets 1/4 of it.
    assert all(f.finished_at == pytest.approx(10.0) for f in flows)


def test_nic_upgrade_changes_speed(net):
    env, network = net
    host = network.attach("server", FAST_ETHERNET)
    host.set_speed(GIGABIT_ETHERNET)
    network.attach("client", GIGABIT_ETHERNET)
    flow = network.send("server", "client", GIGABIT_ETHERNET * 3)
    env.run(until=flow.done)
    assert env.now == pytest.approx(3.0)


# -- HTTP -------------------------------------------------------------------


def make_http():
    env = Environment()
    network = Network(env)
    network.attach("www", FAST_ETHERNET)
    network.attach("node", FAST_ETHERNET)
    server = HttpServer(network, "www", efficiency=0.7)
    return env, network, server


def test_http_get_static_document():
    env, _, server = make_http()
    server.publish("/dist/pkg.rpm", 7 * MBIT)  # < 1s at service speed
    resp = env.run(until=env.process(server.get("node", "/dist/pkg.rpm")))
    assert resp.status == 200
    assert resp.size == 7 * MBIT
    assert server.requests_served == 1
    assert server.bytes_served == 7 * MBIT


def test_http_service_link_caps_payload_rate():
    env, _, server = make_http()
    size = FAST_ETHERNET * 7  # 7 wire-seconds of bytes
    server.publish("/big", size)
    env.run(until=env.process(server.get("node", "/big")))
    # At 70% efficiency the payload takes 7/0.7 = 10s.
    assert env.now == pytest.approx(10.0)


def test_http_404():
    env, _, server = make_http()

    def go():
        with pytest.raises(HttpError, match="404"):
            yield from server.get("node", "/missing")
        return True

    assert env.run(until=env.process(go()))


def test_http_cgi_handler_returns_body():
    env, _, server = make_http()
    server.register_cgi(
        "/install/kickstart.cgi",
        lambda client, path: (f"# kickstart for {client}", 4096),
    )
    resp = env.run(until=env.process(server.get("node", "/install/kickstart.cgi")))
    assert resp.body == "# kickstart for node"
    assert resp.size == 4096


def test_http_server_down_returns_503():
    env, _, server = make_http()
    server.publish("/x", 10)
    server.running = False

    def go():
        with pytest.raises(HttpError, match="503"):
            yield from server.get("node", "/x")
        return True

    assert env.run(until=env.process(go()))


def test_http_unreachable_client_504():
    env, network, server = make_http()
    server.publish("/x", 10)
    network.set_host_up("node", False)

    def go():
        with pytest.raises(HttpError, match="504"):
            yield from server.get("node", "/x")
        return True

    assert env.run(until=env.process(go()))


def test_http_path_normalisation():
    env, _, server = make_http()
    server.publish("dist/base.rpm", 100)
    assert server.has_document("/dist/base.rpm")
    resp = env.run(until=env.process(server.get("node", "//dist/base.rpm/")))
    assert resp.status == 200


def test_route_is_the_path_where_reachable_and_none_elsewhere(net):
    _env, network = net
    network.attach("a", FAST_ETHERNET)
    network.attach("b", FAST_ETHERNET)
    assert network.route("a", "b") == network.path("a", "b")
    assert network.route("a", "nonesuch") is None
    network.set_host_up("b", False)
    assert network.route("a", "b") is None and not network.reachable("a", "b")
    with pytest.raises(HostDown):
        network.path("a", "b")


def test_a_client_lost_in_a_cgi_handler_fails_the_transfer():
    # The route found at the request's start is looked up again after the
    # handler ran, so the client it took down is not sent a byte.
    env, network, server = make_http()

    def handler(client, path):
        network.set_host_up(client, False)
        return "body", 10.0

    server.register_cgi("/ks", handler)

    def go():
        with pytest.raises(HostDown):
            yield from server.get("node", "/ks")
        return True

    assert env.run(until=env.process(go()))
    assert network.flows.active_flows == 0 and server.requests_served == 0


def test_publish_rejects_a_nan_size():
    _, _, server = make_http()
    with pytest.raises(ValueError, match="nan"):
        server.publish("/x", float("nan"))
    assert not server.has_document("/x")
    server.publish("/endless", float("inf"))
    assert server.has_document("/endless")


def test_publish_tree_and_unpublish():
    _, _, server = make_http()
    server.publish_tree({"/a": 1, "/b": 2}, prefix="/dist")
    assert server.has_document("/dist/a")
    server.unpublish("/dist/a")
    assert not server.has_document("/dist/a")


def test_load_balancer_round_robin_doubles_throughput():
    env = Environment()
    network = Network(env)
    servers = []
    for i in range(2):
        network.attach(f"www{i}", FAST_ETHERNET)
        s = HttpServer(network, f"www{i}", efficiency=1.0)
        s.publish("/pkg", FAST_ETHERNET * 10)
        servers.append(s)
    for i in range(2):
        network.attach(f"c{i}", FAST_ETHERNET)
    lb = LoadBalancer(servers)
    p0 = env.process(lb.get("c0", "/pkg"))
    p1 = env.process(lb.get("c1", "/pkg"))
    env.run()
    # Each client got a dedicated backend: both finish at t=10, not t=20.
    assert env.now == pytest.approx(10.0)
    assert servers[0].requests_served == 1
    assert servers[1].requests_served == 1


def test_load_balancer_skips_dead_backend():
    env = Environment()
    network = Network(env)
    servers = []
    for i in range(2):
        network.attach(f"www{i}", FAST_ETHERNET)
        s = HttpServer(network, f"www{i}")
        s.publish("/pkg", 1000)
        servers.append(s)
    network.attach("client", FAST_ETHERNET)
    servers[0].running = False
    lb = LoadBalancer(servers)
    resp = env.run(until=env.process(lb.get("client", "/pkg")))
    assert resp.server == "www1"


def test_load_balancer_requires_backends():
    with pytest.raises(ValueError):
        LoadBalancer([])


def make_lb_pair():
    env = Environment()
    network = Network(env)
    servers = []
    for i in range(2):
        network.attach(f"www{i}", FAST_ETHERNET)
        s = HttpServer(network, f"www{i}")
        s.publish("/pkg", 1000)
        servers.append(s)
    network.attach("c0", FAST_ETHERNET)
    network.attach("c1", FAST_ETHERNET)
    return env, network, servers


def test_load_balancer_fails_over_on_mid_request_503():
    """A backend that sheds the request (not merely down) is retried."""
    env, network, servers = make_lb_pair()
    # www0's slots and accept queue are full: the LB's request reaches
    # HttpServer.get and is shed with a live 503.
    servers[0].configure_admission(0)
    servers[0].publish("/slow", FAST_ETHERNET * 60)

    def occupy(client):
        network.attach(client, FAST_ETHERNET)
        try:
            yield from servers[0].get(client, "/slow")
        except HttpError:
            pass  # a queued occupier times out

    occupiers = [env.process(occupy(f"o{i}"))
                 for i in range(MAX_CONCURRENT + QUEUE_LIMIT)]
    lb = LoadBalancer(servers)
    resp = env.run(until=env.process(lb.get("c0", "/pkg")))
    assert resp.server == "www1"
    assert servers[0].rejected == 1
    for occupier in occupiers:
        env.run(until=occupier)


def test_load_balancer_does_not_fail_over_on_4xx():
    env, _, servers = make_lb_pair()

    def go():
        with pytest.raises(HttpError, match="404"):
            yield from LoadBalancer(servers).get("c0", "/missing")
        return True

    assert env.run(until=env.process(go()))


def test_load_balancer_fast_fails_when_every_backend_is_avoided():
    env, _, servers = make_lb_pair()
    lb = LoadBalancer(servers)
    lb.should_avoid = lambda server: True

    def go():
        with pytest.raises(HttpError, match="avoided"):
            yield from lb.get("c0", "/pkg")
        return True

    assert env.run(until=env.process(go()))
    assert all(s.requests_served == 0 for s in servers)


def make_lb_farm(n=3):
    env = Environment()
    network = Network(env)
    servers = []
    for i in range(n):
        network.attach(f"www{i}", FAST_ETHERNET)
        s = HttpServer(network, f"www{i}")
        s.publish("/pkg", 1000)
        servers.append(s)
    network.attach("c0", FAST_ETHERNET)
    return env, network, servers


def test_load_balancer_add_backend_joins_the_rotation():
    env, network, servers = make_lb_farm(n=2)
    lb = LoadBalancer(servers[:1])
    env.run(until=env.process(lb.get("c0", "/pkg")))
    lb.add_backend(servers[1])
    picked = [env.run(until=env.process(lb.get("c0", "/pkg"))).server for _ in range(3)]
    # the new backend joins the tail of the rotation and gets its share
    assert picked == ["www0", "www1", "www0"]
    assert servers[1].requests_served == 1
    with pytest.raises(ValueError, match="already"):
        lb.add_backend(servers[1])


def test_load_balancer_remove_backend_validation():
    env, network, servers = make_lb_farm(n=2)
    lb = LoadBalancer(servers[:1])
    with pytest.raises(ValueError, match="not registered"):
        lb.remove_backend(servers[1])
    with pytest.raises(ValueError, match="last backend"):
        lb.remove_backend(servers[0])


def test_load_balancer_remove_keeps_rotation_fair():
    """Removing a backend behind the cursor must not skip the next one."""
    env, _, servers = make_lb_farm(n=3)
    lb = LoadBalancer(servers)
    env.run(until=env.process(lb.get("c0", "/pkg")))  # www0; cursor now at www1
    lb.remove_backend(servers[0])
    picked = []
    for _ in range(4):
        picked.append(env.run(until=env.process(lb.get("c0", "/pkg"))).server)
    # www1 and www2 alternate, starting from the undisturbed cursor
    assert picked == ["www1", "www2", "www1", "www2"]


def test_load_balancer_skips_do_not_consume_failover_attempts():
    """An avoided/dead backend is skipped, not tried: with N-1 of N
    backends unavailable the single live one still serves every request."""
    env, _, servers = make_lb_farm(n=3)
    servers[0].running = False
    lb = LoadBalancer(servers)
    lb.should_avoid = lambda server: server.host == "www2"
    for _ in range(4):
        resp = env.run(until=env.process(lb.get("c0", "/pkg")))
        assert resp.server == "www1"
    assert lb.dispatches == 4
    # skipped backends ahead of www1 in each request's rotation:
    # starts 0,1,2,0 -> 1 + 0 + 2 + 1 skips, none of them dispatched
    assert lb.skips == 4
    assert servers[2].requests_served == 0


def make_admitted(n_clients, tracer):
    """A traced server with admission control and a request log; a
    document of ``FAST_ETHERNET`` bytes takes 1 s to serve alone."""
    env = Environment()
    tracer.attach(env)
    network = Network(env)
    network.attach("www", FAST_ETHERNET)
    for i in range(n_clients):
        network.attach(f"c{i}", FAST_ETHERNET)
    server = HttpServer(network, "www", efficiency=1.0)
    server.configure_admission(0)
    server.log = RequestLog()
    return env, network, server


def test_get_interrupted_in_the_accept_queue_closes_its_span():
    """A GET interrupted while it waits for a slot ends aborted, then."""
    tracer = Tracer()
    env, _, server = make_admitted(MAX_CONCURRENT + 1, tracer)
    server.publish("/big", FAST_ETHERNET)
    outcomes = []

    def fetch(client):
        try:
            yield from server.get(client, "/big")
            outcomes.append((client, "ok"))
        except Interrupt:
            outcomes.append((client, "interrupted"))

    holders = [f"c{i}" for i in range(MAX_CONCURRENT)]
    for client in holders:  # every slot busy for MAX_CONCURRENT seconds
        env.process(fetch(client))
    waiter = f"c{MAX_CONCURRENT}"
    queued = env.process(fetch(waiter))

    def interrupt_at_1():
        yield env.timeout(1.0)
        queued.interrupt("node power-cycled")

    env.process(interrupt_at_1())
    env.run()
    assert outcomes == [(waiter, "interrupted")] + [(c, "ok") for c in holders]
    http = {s.attrs["client"]: s for s in tracer.spans("http")}
    [queue] = tracer.spans("http-queue")
    assert (queue.t1, queue.attrs["outcome"]) == (1.0, "aborted")
    assert (http[waiter].t0, http[waiter].t1) == (0.0, 1.0)
    assert http[waiter].attrs["outcome"] == "aborted"
    done = http["c0"].t1
    assert done == pytest.approx(float(MAX_CONCURRENT))
    assert server.log.requests == [(0.0, 1.0)] + [(0.0, done)] * MAX_CONCURRENT
    assert server.in_flight == server.queue_depth == 0


def test_request_log_mirrors_the_http_spans_and_reject_events():
    """Every way a GET ends is logged exactly as the tracer records it."""
    tracer = Tracer()
    n = MAX_CONCURRENT + QUEUE_LIMIT + 8  # one client per request
    env, network, server = make_admitted(n, tracer)
    server.publish("/pkg", FAST_ETHERNET)
    server.publish("/slow", FAST_ETHERNET * 600)
    clients = iter(f"c{i}" for i in range(n))
    down = next(clients)
    network.set_host_up(down, False)
    procs = {}

    def get_at(t, client, path):
        yield env.timeout(t)
        try:
            yield from server.get(client, path)
        except (HttpError, TransferAborted, Interrupt):
            pass

    def at(t, action):
        yield env.timeout(t)
        action()

    def kill():
        server.running = False
        server.abort_transfers()

    t = QUEUE_TIMEOUT + 6.0  # after the queued requests timed out
    plan = [
        (0.0, "ok", "/pkg"),          # 200 at t=1
        (0.5, down, "/pkg"),          # 504: the client's host is down
        (1.5, "404", "/missing"),     # 404
    ] + [
        (2.0, f"hold{i}", "/slow")    # every slot held
        for i in range(MAX_CONCURRENT)
    ] + [
        (3.0, "queued", "/pkg")       # queued, time out at 3 + QUEUE_TIMEOUT
    ] * QUEUE_LIMIT + [
        (4.0, "shed", "/pkg"),        # the queue is full: shed
        (t, "interrupted", "/pkg"),   # queued, interrupted at t+1
        (t + 2.0, "reset", "/slow"),  # in transfer, reset by the kill
        (t + 3.0, "flushed", "/pkg"), # queued, flushed by the kill
        (t + 5.0, "stopped", "/pkg"), # 503: the server is stopped
    ]
    for at_t, role, path in plan:
        client = down if role == down else next(clients)
        procs[role] = env.process(get_at(at_t, client, path))
    env.process(at(t + 1.0, lambda: procs["interrupted"].interrupt(
        "power-cycled")))
    # frees one slot for the "reset" request
    env.process(at(t + 1.5, lambda: procs["hold0"].interrupt("deadline")))
    env.process(at(t + 4.0, kill))
    env.run()

    spans = tracer.spans("http")
    assert len(spans) == len(plan) and all(s.t1 is not None for s in spans)
    assert Counter(s.attrs["outcome"] for s in spans) == {
        "ok": 1,
        "error": QUEUE_LIMIT + 5,
        "aborted": 2,                # "interrupted" and "hold0"
        "reset": MAX_CONCURRENT,     # the other holders and "reset"
    }
    assert sorted(s.attrs.get("status") for s in spans
                  if s.attrs["outcome"] == "error") == (
        [404] + [503] * (QUEUE_LIMIT + 3) + [504])
    assert Counter(server.log.requests) == Counter(
        (s.t0, s.t1) for s in spans
    )
    rejects = tracer.events("http-reject")
    assert Counter(e["attrs"]["cause"] for e in rejects) == {
        "connection reset": 1, "queue-full": 1, "queue-timeout": QUEUE_LIMIT,
    }
    assert Counter(server.log.rejects) == Counter(e["t"] for e in rejects)
