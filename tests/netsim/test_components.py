"""The persistent bottleneck components agree with a from-scratch walk.

Every live flow points at the component it belongs to, and the network
keeps those pointers current as flows start, bridge, finish and are
cancelled.  Hypothesis drives random operation sequences and, after
each one, compares every flow's component with the one a breadth-first
walk over the live flows finds.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Environment, FlowNetwork, Link
from repro.netsim.flows import _Component

from .full_recompute import walk_components

#: Link 3 is unconstrained: it still connects the flows that cross it.
CAPS = (100.0, 100.0, 40.0, None, 250.0, 60.0)

# Paths may list a link twice; a flow across two busy links bridges them.
paths = st.lists(st.integers(0, len(CAPS) - 1), min_size=1, max_size=3)
sizes = st.one_of(st.just(0.0), st.floats(10.0, 2000.0))
max_rates = st.one_of(st.none(), st.sampled_from([5.0, 30.0, math.inf]))
# What a flow's completion callback does: start a transfer or cancel one.
on_done = st.one_of(
    st.none(),
    st.tuples(st.just("start"), paths, sizes),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
)
link_ids = st.integers(0, len(CAPS) - 1)
operations = {
    "start": st.tuples(st.just("start"), paths, sizes, max_rates, on_done),
    "cancel": st.tuples(st.just("cancel"), st.integers(0, 40)),
    "run": st.tuples(st.just("run"), st.floats(0.01, 3.0)),
    "recompute": st.tuples(st.just("recompute"), st.lists(link_ids, max_size=2)),
    "recompute_all": st.tuples(st.just("recompute_all")),
    "capacity": st.tuples(
        st.just("capacity"), link_ids, st.sampled_from([20.0, 150.0, None])
    ),
}
# Starts are drawn most often, so that components grow, merge and split.
kinds = st.sampled_from(["start"] * 4 + sorted(operations))
ops = st.lists(kinds.flatmap(operations.__getitem__), min_size=10, max_size=40)


def assert_components_current(net):
    comps = list(walk_components(net._flows, set(), set()))
    for comp in comps:
        for flow in comp:
            assert isinstance(flow._comp, _Component)
            assert list(flow._comp.flows) == comp


@settings(max_examples=150, deadline=None)
@given(script=ops)
def test_components_match_a_fresh_walk_after_every_operation(script):
    env = Environment()
    net = FlowNetwork(env)
    links = [Link(f"l{i}", cap) for i, cap in enumerate(CAPS)]
    created = []

    def cancel(k):
        if created:
            flow = created[k % len(created)]
            if flow.finished_at is None:
                flow.cancel()

    def start(idxs, size, max_rate=None, then=None):
        flow = net.transfer([links[i] for i in idxs], size, max_rate=max_rate)
        created.append(flow)

        def done(event):
            if event.ok and then is not None:
                if then[0] == "start":
                    start(then[1], then[2])
                else:
                    cancel(then[1])
                assert_components_current(net)

        flow.done.callbacks.append(done)  # also defuses a cancel's failure

    for op, *args in script:
        if op == "start":
            start(*args)
        elif op == "cancel":
            cancel(*args)
        elif op == "run":
            env.run(until=env.now + args[0])
        elif op == "recompute":
            net.recompute([links[i] for i in args[0]])
        elif op == "recompute_all":
            net.recompute()
        else:
            j, cap = args
            links[j].capacity = cap
            net.recompute([links[j]])
        assert_components_current(net)

    env.run()
    assert net.active_flows == 0
    # A link reaches a component only through its flows.
    assert all(flow._comp is None for flow in created)
    assert all(not link._flows for link in links)


def test_a_bridging_flow_merges_components_and_its_departure_splits_them():
    env = Environment()
    net = FlowNetwork(env)
    a, b = Link("a", 100.0), Link("b", 100.0)
    fa = net.transfer([a], 1e3)
    fb = net.transfer([b], 1e3)
    assert fa._comp is not fb._comp
    bridge = net.transfer([b, a], 1e3)
    assert fa._comp is fb._comp is bridge._comp
    assert list(fa._comp.flows) == [fa, fb, bridge]
    bridge.cancel()
    assert list(fa._comp.flows) == [fa]
    assert list(fb._comp.flows) == [fb]
    assert bridge._comp is None
    assert fa.rate == fb.rate == 100.0
