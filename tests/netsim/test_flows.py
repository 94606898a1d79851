"""Unit and property tests for the max-min fair flow network."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Environment, Flow, FlowNetwork, Link, TransferAborted

from .full_recompute import FullRecomputeNetwork


def make_net():
    env = Environment()
    return env, FlowNetwork(env)


def test_single_flow_gets_full_capacity():
    env, net = make_net()
    link = Link("l", 100.0)
    flow = net.transfer([link], 1000.0)
    assert flow.rate == pytest.approx(100.0)
    env.run(until=flow.done)
    assert env.now == pytest.approx(10.0)
    assert flow.finished_at == pytest.approx(10.0)


def test_two_flows_share_equally():
    env, net = make_net()
    link = Link("l", 100.0)
    f1 = net.transfer([link], 500.0)
    f2 = net.transfer([link], 500.0)
    assert f1.rate == pytest.approx(50.0)
    assert f2.rate == pytest.approx(50.0)
    env.run()
    assert f1.finished_at == pytest.approx(10.0)
    assert f2.finished_at == pytest.approx(10.0)


def test_rate_cap_leaves_bandwidth_for_others():
    env, net = make_net()
    link = Link("l", 100.0)
    capped = net.transfer([link], 1000.0, max_rate=10.0)
    fast = net.transfer([link], 1000.0)
    assert capped.rate == pytest.approx(10.0)
    assert fast.rate == pytest.approx(90.0)
    env.run()
    assert capped.finished_at == pytest.approx(100.0)


def test_departure_redistributes_bandwidth():
    env, net = make_net()
    link = Link("l", 100.0)
    short = net.transfer([link], 100.0)  # finishes at t=2 (50 B/s share)
    long = net.transfer([link], 500.0)
    env.run(until=short.done)
    assert env.now == pytest.approx(2.0)
    # long moved 100 bytes so far; remaining 400 at the full 100 B/s.
    assert long.rate == pytest.approx(100.0)
    env.run(until=long.done)
    assert env.now == pytest.approx(6.0)


def test_arrival_slows_existing_flow():
    env, net = make_net()
    link = Link("l", 100.0)
    first = net.transfer([link], 1000.0)

    def late():
        yield env.timeout(5.0)
        second = net.transfer([link], 250.0)
        yield second.done

    env.process(late())
    env.run(until=first.done)
    # first: 500B alone in 5s, then 500B at 50 B/s while second runs
    # second finishes at t=10, first has 250 left, full rate again.
    assert env.now == pytest.approx(12.5)


def test_flows_through_selects_by_link():
    env, net = make_net()
    shared = Link("uplink", 100.0)
    a = Link("a", 100.0)
    b = Link("b", 100.0)
    on_a = net.transfer([shared, a], 1000.0)
    on_b = net.transfer([shared, b], 2000.0)
    assert set(net.flows_through(shared)) == {on_a, on_b}
    assert net.flows_through(a) == [on_a]
    assert net.flows_through(b) == [on_b]
    env.run(until=on_a.done)
    # the finished flow drops out of every link's view
    assert net.flows_through(a) == []
    assert net.flows_through(shared) == [on_b]


def test_multihop_bottleneck_is_min_link():
    env, net = make_net()
    fat = Link("fat", 1000.0)
    thin = Link("thin", 10.0)
    flow = net.transfer([fat, thin], 100.0)
    assert flow.rate == pytest.approx(10.0)
    env.run()
    assert flow.finished_at == pytest.approx(10.0)


def test_unconstrained_link_is_transparent():
    env, net = make_net()
    backplane = Link("switch", None)
    nic = Link("nic", 50.0)
    flow = net.transfer([nic, backplane], 500.0)
    assert flow.rate == pytest.approx(50.0)
    env.run()
    assert flow.finished_at == pytest.approx(10.0)


def test_fully_unconstrained_flow_completes_instantly():
    env, net = make_net()
    backplane = Link("switch", None)
    flow = net.transfer([backplane], 10_000.0)
    env.run(until=flow.done)
    assert env.now == pytest.approx(0.0)


def test_zero_byte_transfer_completes_immediately():
    env, net = make_net()
    link = Link("l", 10.0)
    flow = net.transfer([link], 0.0)
    assert flow.done.triggered
    assert flow.finished_at == env.now


def test_cancel_aborts_with_exception():
    env, net = make_net()
    link = Link("l", 100.0)
    flow = net.transfer([link], 1000.0, label="victim")

    def canceller():
        yield env.timeout(3.0)
        flow.cancel()

    def waiter():
        with pytest.raises(TransferAborted):
            yield flow.done
        return env.now

    env.process(canceller())
    assert env.run(until=env.process(waiter())) == pytest.approx(3.0)
    assert net.active_flows == 0


def test_cancel_frees_bandwidth():
    env, net = make_net()
    link = Link("l", 100.0)
    victim = net.transfer([link], 10_000.0)
    survivor = net.transfer([link], 500.0)

    def canceller():
        yield env.timeout(2.0)
        victim.cancel()

    env.process(canceller())

    def waiter():
        with pytest.raises(TransferAborted):
            yield victim.done

    env.process(waiter())
    env.run(until=survivor.done)
    # survivor: 100B in the first 2s at 50B/s, then 400B at 100 B/s.
    assert env.now == pytest.approx(6.0)


def test_crossing_flows_do_not_contend():
    env, net = make_net()
    a, b = Link("a", 100.0), Link("b", 100.0)
    f1 = net.transfer([a], 1000.0)
    f2 = net.transfer([b], 1000.0)
    assert f1.rate == pytest.approx(100.0)
    assert f2.rate == pytest.approx(100.0)


def test_three_way_maxmin_with_shared_middle():
    # Two flows share link m; a third uses only link a.
    env, net = make_net()
    a = Link("a", 100.0)
    m = Link("m", 60.0)
    f1 = net.transfer([a, m], 1e9)
    f2 = net.transfer([m], 1e9)
    f3 = net.transfer([a], 1e9)
    # m splits 30/30; a then has 70 left for f3.
    assert f1.rate == pytest.approx(30.0)
    assert f2.rate == pytest.approx(30.0)
    assert f3.rate == pytest.approx(70.0)


def test_bytes_moved_accounting():
    env, net = make_net()
    link = Link("l", 100.0)
    net.transfer([link], 300.0)
    net.transfer([link], 300.0)
    env.run()
    assert net.bytes_moved == pytest.approx(600.0)


def test_negative_size_rejected():
    _, net = make_net()
    with pytest.raises(ValueError):
        net.transfer([Link("l", 1.0)], -5)


def test_bad_max_rate_rejected():
    _, net = make_net()
    with pytest.raises(ValueError):
        net.transfer([Link("l", 1.0)], 5, max_rate=0)


def test_bad_link_capacity_rejected():
    with pytest.raises(ValueError):
        Link("l", 0)
    with pytest.raises(ValueError):
        Link("l", -3)


def test_nan_size_rejected():
    # A NaN size used to pass the ``size < 0`` check: the flow never got
    # a share and never completed, so anything waiting on it hung.
    env, net = make_net()
    link = Link("l", 100.0)
    with pytest.raises(ValueError):
        net.transfer([link], math.nan)
    assert net.active_flows == 0 and not link.n_flows
    endless = net.transfer([link], math.inf)  # still legal
    assert endless.rate == 100.0


def test_nan_link_capacity_rejected():
    # A NaN capacity used to act as unconstrained: rate=inf on the link
    # and a NaN utilization.
    with pytest.raises(ValueError):
        Link("l", math.nan)


def test_nan_max_rate_rejected():
    # A NaN max_rate used to be silently ignored by the fill.
    _, net = make_net()
    with pytest.raises(ValueError):
        net.transfer([Link("l", 100.0)], 5, max_rate=math.nan)


# ---------------------------------------------------------------------------
# Property-based invariants of the max-min allocation
# ---------------------------------------------------------------------------

flow_spec = st.tuples(
    st.integers(min_value=0, max_value=4),  # which links the flow crosses (bitmask-ish)
    st.one_of(st.none(), st.floats(min_value=0.5, max_value=50.0)),  # max_rate
)


@settings(max_examples=200, deadline=None)
@given(
    caps=st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=4),
    flows=st.lists(flow_spec, min_size=1, max_size=8),
)
def test_maxmin_invariants(caps, flows):
    """No link oversubscribed; no flow exceeds its cap; allocation is
    work-conserving (every flow is limited by *something*)."""
    env = Environment()
    net = FlowNetwork(env)
    links = [Link(f"l{i}", c) for i, c in enumerate(caps)]
    live: list[Flow] = []
    for which, cap in flows:
        path = [links[which % len(links)]]
        if which % 2:
            path.append(links[(which + 1) % len(links)])
        live.append(net.transfer(path, 1e12, max_rate=cap))

    # Invariant 1: link capacities respected.
    for link in links:
        used = sum(f.rate for f in live if link in f.path)
        assert used <= link.capacity * (1 + 1e-6)

    for f in live:
        # Invariant 2: per-flow caps respected; rates non-negative.
        assert f.rate >= 0
        if f.max_rate is not None:
            assert f.rate <= f.max_rate * (1 + 1e-6)
        # Invariant 3 (work conservation / Pareto efficiency): each flow is
        # either at its own cap or crosses at least one saturated link.
        at_cap = f.max_rate is not None and f.rate >= f.max_rate * (1 - 1e-6)
        saturated = any(
            sum(g.rate for g in live if link in g.path) >= link.capacity * (1 - 1e-6)
            for link in f.path
        )
        assert at_cap or saturated


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(
        st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=10
    ),
    cap=st.floats(min_value=1.0, max_value=1e5),
)
def test_shared_link_completion_conserves_work(sizes, cap):
    """Total completion time of concurrent flows on one link is exactly
    total_bytes / capacity (the link never idles while work remains)."""
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", cap)
    flows = [net.transfer([link], s) for s in sizes]
    env.run()
    assert all(f.done.triggered for f in flows)
    expect = sum(sizes) / cap
    assert env.now == pytest.approx(expect, rel=1e-6)


# -- the full-recompute oracle (differential testing) -----------------------

def make_full_net():
    env = Environment()
    return env, FullRecomputeNetwork(env)


def test_full_mode_two_flows_share_equally():
    env, net = make_full_net()
    link = Link("l", 100.0)
    f1 = net.transfer([link], 500.0)
    f2 = net.transfer([link], 500.0)
    assert f1.rate == pytest.approx(50.0)
    assert f2.rate == pytest.approx(50.0)
    env.run()
    assert f1.finished_at == f2.finished_at == pytest.approx(10.0)


def test_full_mode_departure_redistributes():
    env, net = make_full_net()
    link = Link("l", 100.0)
    short = net.transfer([link], 100.0)
    long = net.transfer([link], 500.0)
    env.run(until=short.done)
    assert long.rate == pytest.approx(100.0)
    env.run(until=long.done)
    assert env.now == pytest.approx(6.0)


def test_full_mode_refills_untouched_components():
    # Two disjoint links: a change on one must still leave the other's
    # flow correct (the oracle refills it; rates are reproduced exactly).
    env, net = make_full_net()
    a, b = Link("a", 100.0), Link("b", 40.0)
    fa = net.transfer([a], 1000.0)
    fb = net.transfer([b], 1000.0)
    assert (fa.rate, fb.rate) == (100.0, 40.0)
    fa2 = net.transfer([a], 1000.0)  # dirties only link a
    assert fa.rate == fa2.rate == 50.0
    assert fb.rate == 40.0


def test_incremental_change_preserves_other_components_rates():
    env, net = make_net()
    a, b = Link("a", 100.0), Link("b", 40.0)
    fa = net.transfer([a], 1000.0)
    fb = net.transfer([b], 1000.0)
    fa2 = net.transfer([a], 1000.0)
    # The incremental network never even visited fb's component.
    assert fa.rate == fa2.rate == 50.0
    assert fb.rate == 40.0
    env.run()
    assert fb.finished_at == pytest.approx(25.0)
