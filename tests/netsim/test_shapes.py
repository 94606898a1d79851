"""Shaped components against the full-recompute oracle.

A component keeps a *shape* (one cap; per path position the link every
member crosses, or private links of one capacity) across joins and
departures, and is refilled in one pass from it.  Hypothesis drives
install-like workloads through a :class:`~repro.netsim.Network` twice,
once on the incremental network and once on
:class:`~.full_recompute.FullRecomputeNetwork`, which never reads a
shape, and every rate, completion instant and byte counter must match
bit for bit.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim import Environment, FlowNetwork, Link, Network
from repro.netsim.flows import _Component
from repro.scenarios import reinstall_point

from .full_recompute import FullRecomputeNetwork

SERVERS = ("s0", "s1")
CLIENTS = ("n0", "n1", "n2", "n3")
NIC = 12.5
#: 7.5 is anaconda's cap (a join with the same cap), the others differ.
CAPS = (7.5, None, 3.0)

sizes = st.floats(1.0, 200.0)
starts = st.tuples(
    st.sampled_from(["send", "wide"]),
    st.integers(0, len(SERVERS) - 1),
    st.integers(0, len(CLIENTS) - 1),
    sizes,
    st.sampled_from([0, 0, 0, 1, 2]),
)
operations = {
    "start": starts,
    "cancel": st.tuples(st.just("cancel"), st.integers(0, 30)),
    "run": st.tuples(st.just("run"), st.floats(0.1, 20.0)),
    "speed": st.tuples(
        st.just("speed"), st.integers(0, len(CLIENTS) - 1),
        st.sampled_from([0.25, 1.0]),
    ),
}
kinds = st.sampled_from(["start"] * 4 + ["cancel", "run", "run", "speed"])
scripts = st.lists(kinds.flatmap(operations.__getitem__), min_size=4, max_size=30)


def run_world(network_cls, script):
    """Replay ``script`` on a two-server, four-client segment.

    ``send`` is an install fetch (server tx, then client rx); ``wide``
    crosses a private middle hop too, so its path is one link wider.
    ``speed`` is ``set_host_speed``, the link-degradation fault.
    Returns the rates after every operation, then each flow's end, the
    network's ``bytes_moved`` and every link's ``bytes_carried``, all as
    ``repr`` strings.
    """
    env = Environment()
    network = Network(env)
    network.flows = net = network_cls(env)
    for name in SERVERS + CLIENTS:
        network.attach(name, NIC)
    links = [link for name in SERVERS + CLIENTS
             for link in (network.host(name).tx, network.host(name).rx)]
    created = []
    rates = []
    for op, *args in script:
        if op in ("send", "wide"):
            src, dst, size, cap = args
            path = network.path(SERVERS[src], CLIENTS[dst])
            if op == "wide":
                hop = Link(f"hop{len(created)}", NIC)
                links.append(hop)
                path = (path[0], hop, path[1])
            flow = net.transfer(path, size, max_rate=CAPS[cap])
            flow.done.callbacks.append(lambda _ev: None)  # defuse cancels
            created.append(flow)
        elif op == "cancel":
            if created:
                flow = created[args[0] % len(created)]
                if flow.finished_at is None:
                    flow.cancel()
        elif op == "run":
            env.run(until=env.now + args[0])
        else:
            client, factor = args
            network.set_host_speed(CLIENTS[client], NIC * factor)
        rates.append([repr(f.rate) for f in created])
    env.run()
    assert net.active_flows == 0
    ends = [(repr(f.finished_at), repr(f.remaining)) for f in created]
    carried = [repr(link.bytes_carried) for link in links]
    return rates, ends, repr(net.bytes_moved), carried


@settings(max_examples=150, deadline=None)
@given(script=scripts)
# Joins with the anaconda cap; a one-member component turns into two
# (the client rx turns private); a join with another cap; a departure
# down to one member, then a new join.
@example(script=[
    ("send", 0, 0, 100.0, 0), ("send", 0, 1, 150.0, 0),
    ("send", 0, 2, 150.0, 0), ("run", 20.0), ("send", 0, 3, 80.0, 1),
    ("cancel", 1), ("run", 10.0), ("send", 0, 0, 50.0, 0),
])
# A second flow on one client NIC; a joiner one link wider.
@example(script=[
    ("send", 0, 0, 100.0, 0), ("send", 0, 0, 100.0, 0),
    ("wide", 0, 1, 60.0, 0), ("run", 5.0), ("cancel", 2), ("run", 40.0),
])
# A bridging flow that merges two shaped components: the merged one
# fills unequally (one member gets what the bridge leaves on its NIC).
@example(script=[
    ("send", 0, 0, 100.0, 1), ("send", 1, 1, 100.0, 1),
    ("send", 1, 2, 100.0, 1), ("send", 1, 0, 100.0, 1), ("run", 30.0),
])
# An uncapped join drops the shape, and a join with another cap enters
# the shapeless component.  The uncapped flow's departure cannot bring
# the shape back while the other misfit stays; its departure does, a
# join keeps it, and a second flow on one client NIC drops it again.
# Then an uncapped flow that finishes on its own between capped joins.
@example(script=[
    ("send", 0, 0, 100.0, 0), ("send", 0, 1, 100.0, 0),
    ("send", 0, 2, 20.0, 1), ("send", 0, 3, 100.0, 2), ("run", 2.0),
    ("cancel", 2), ("run", 3.0), ("cancel", 3), ("send", 0, 2, 60.0, 0),
    ("run", 2.0), ("send", 0, 0, 50.0, 0), ("run", 30.0),
    ("send", 1, 1, 90.0, 0), ("send", 1, 2, 4.0, 1), ("send", 1, 3, 90.0, 0),
    ("run", 30.0),
])
# A member's NIC degrades mid-transfer, then recovers.
@example(script=[
    ("send", 0, 0, 100.0, 0), ("send", 0, 1, 100.0, 0), ("run", 2.0),
    ("speed", 1, 0.25), ("run", 5.0), ("send", 0, 2, 50.0, 0),
    ("speed", 1, 1.0), ("run", 3.0),
])
def test_shaped_workloads_match_the_oracle_bit_for_bit(script):
    assert run_world(FlowNetwork, script) == run_world(FullRecomputeNetwork, script)


def test_shape_follows_joins_departures_and_capacity_changes():
    env = Environment()
    network = Network(env)
    for name in SERVERS + CLIENTS:
        network.attach(name, NIC)
    net = network.flows
    s0, s1 = network.host("s0"), network.host("s1")
    a = network.send("s0", "n0", 100.0, max_rate=7.5)
    comp = a._comp
    assert comp.shape == [s0.tx, network.host("n0").rx]
    assert comp.cap == 7.5
    # A second member on its own NIC turns the client position private.
    b = network.send("s0", "n1", 200.0, max_rate=7.5)
    assert b._comp is comp and comp.shape == [s0.tx, None]
    # Its departure leaves the shape true for the one member left.
    b.cancel()
    b.done.callbacks.append(lambda _ev: None)
    assert comp.shape == [s0.tx, None]
    # A member whose NIC changes speed takes the shape with it.
    network.send("s0", "n2", 200.0, max_rate=7.5)
    network.set_host_speed("n2", NIC / 4)
    assert comp.shape is None
    # A flow bridging two components makes one without a shape.
    other = network.send("s1", "n3", 100.0, max_rate=7.5)
    assert other._comp.shape == [s1.tx, network.host("n3").rx]
    bridge = network.send("s1", "n0", 100.0, max_rate=7.5)
    assert bridge._comp is a._comp is other._comp
    assert bridge._comp.shape is None
    env.run()
    assert net.active_flows == 0


def test_shape_is_regained_once_its_misfit_leaves():
    env = Environment()
    network = Network(env)
    for name in SERVERS + CLIENTS:
        network.attach(name, NIC)
    s0 = network.host("s0")
    a = network.send("s0", "n0", 100.0, max_rate=7.5)
    network.send("s0", "n1", 100.0, max_rate=7.5)
    comp = a._comp
    # An uncapped join drops the shape and is the misfit to wait for.
    uncapped = network.send("s0", "n2", 100.0)
    assert comp.shape is None and comp.misfit is uncapped
    # A capped join into the shapeless component changes nothing.
    network.send("s0", "n3", 100.0, max_rate=7.5)
    assert comp.shape is None and comp.misfit is uncapped
    # Its departure's refill rebuilds the shape from the members.
    uncapped.done.callbacks.append(lambda _ev: None)
    uncapped.cancel()
    assert comp.shape == [s0.tx, None] and comp.cap == 7.5
    assert comp.misfit is None
    # A second flow on one client NIC drops it again.
    second = network.send("s0", "n0", 100.0, max_rate=7.5)
    assert comp.shape is None and comp.misfit is second
    env.run()
    assert network.flows.active_flows == 0


def test_table1_point_computes_a_shape_per_born_component(monkeypatch):
    """On a 32-node Table I point (build, integration and reinstall),
    shapes are computed at most once per component created plus once
    per invalidation, and the refills reuse them: nothing proves a
    component's shape again fill by fill."""
    counts = Counter()
    real_init, real_fill = _Component.__init__, FlowNetwork._fill
    real_recompute = FlowNetwork.recompute

    def init(self, flows, shape=None, cap=None):
        counts["created"] += 1
        counts["computed"] += shape is not None
        real_init(self, flows, shape, cap)

    def recompute(self, links):
        links = list(links)
        counts["invalidated"] += len({
            flow._comp for link in links for flow in link._flows
            if flow._comp.shape is not None
        })
        real_recompute(self, links)

    def fill(self, active):
        counts["shaped" if active[0]._comp.shape is not None else "rounds"] += 1
        real_fill(self, active)

    monkeypatch.setattr(_Component, "__init__", init)
    monkeypatch.setattr(FlowNetwork, "recompute", recompute)
    monkeypatch.setattr(FlowNetwork, "_fill", fill)
    _reports, minutes, _bytes = reinstall_point(32)
    assert minutes == 15.875584758662914
    assert 0 < counts["computed"] <= counts["created"] + counts["invalidated"]
    assert counts["shaped"] > 2 * counts["computed"]
    assert counts["rounds"] * 100 < counts["shaped"]
