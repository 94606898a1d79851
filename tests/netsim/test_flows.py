"""Unit and property tests for the max-min fair flow network."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim import Environment, Flow, FlowNetwork, Link, TransferAborted
from repro.netsim.flows import _EPS

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


def test_unconstrained_flow_counts_its_bytes():
    # An infinite-rate flow finishes at the instant it starts, where a
    # credit moves nothing: its size is counted when it completes.
    env, net = make_net()
    free = Link("free", None)
    flow = net.transfer([free], 100.0)
    env.run()
    assert flow.finished_at == 0.0
    assert net.bytes_moved == free.bytes_carried == 100.0
    # Next to a finite-rate flow, whose arithmetic is unchanged.
    nic = Link("nic", 10.0)
    slow = net.transfer([nic], 50.0)
    net.transfer([Link("free2", None)], 25.0)
    env.run()
    assert slow.finished_at == 5.0
    assert net.bytes_moved == 175.0
    assert nic.bytes_carried == 50.0


def test_empty_path_is_refused():
    # An empty path touches no link, so no fill would ever give the flow
    # a rate and it would stay pending forever.
    env, net = make_net()
    with pytest.raises(ValueError):
        net.transfer([], 100.0)
    with pytest.raises(ValueError):
        net.transfer((), 0.0)
    assert net.active_flows == 0


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
# A pending wakeup kept although it was 1e-9 s later than needed ended
# the 1-byte flow at 0.000200001 s, not 0.0002 s: 1.7e-6 off in all.
@example(sizes=[2.00001, 1.0], cap=1e4)
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


# -- shaped components against the reference fill -----------------------

#: Table I's install path: every node's fetch crosses the install
#: service's link and the frontend's tx, both shared, then its own rx,
#: all at 100 Mbit, and anaconda caps it at 7.5 MB/s.
TABLE1_LINK = 12.5e6
TABLE1_CAP = 7.5e6


def star(k, shared=(TABLE1_LINK, TABLE1_LINK), private=(TABLE1_LINK,)):
    """Paths for k flows: the shared links, then one private link per
    capacity in ``private`` (Table I's shape by default)."""
    def paths():
        common = tuple(Link(f"shared{j}", c) for j, c in enumerate(shared))
        return [
            common + tuple(Link(f"node{i}.{j}", c) for j, c in enumerate(private))
            for i in range(k)
        ]
    return paths


def fill_both(paths, max_rates):
    """Start one flow per path on a FlowNetwork and on the reference.

    ``paths`` builds each network's links: it is called once per
    network, so the two share no state.  Returns the two flow lists,
    in start order, after the last start's fill.
    """
    out = []
    for cls in (FlowNetwork, FullRecomputeNetwork):
        net = cls(Environment())
        out.append([
            net.transfer(path, 1e12, max_rate=cap)
            for path, cap in zip(paths(), max_rates)
        ])
    return out


def assert_same_rates(flows, oracle):
    assert [repr(f.rate) for f in flows] == [repr(f.rate) for f in oracle]


def assert_shaped(flows):
    """The flows form one component whose shape holds, per position,
    the link they all cross there, or ``None`` where each crosses its
    own link, and whose cap is their common ``max_rate``."""
    comp = flows[0]._comp
    assert all(f._comp is comp for f in flows)
    assert comp.shape == [
        links[0] if all(link is links[0] for link in links) else None
        for links in zip(*(f.path for f in flows))
    ]
    assert comp.cap == flows[0].max_rate


def twice():
    service = Link("service", TABLE1_LINK)
    return [(service, Link(f"node{i}.rx", TABLE1_LINK), service) for i in range(4)]


def cap_near_share(k, offset):
    # Within _EPS of the share, the cap wins whichever side it is on.
    cap = 100.0 / k + offset
    return pytest.param(star(k, (100.0,), (100.0,)), [cap] * k, cap,
                        id=f"cap-share{offset:+g}-{k}")


@pytest.mark.parametrize("paths, caps, rate", [
    *(pytest.param(star(k), [TABLE1_CAP] * k, min(TABLE1_CAP, TABLE1_LINK / k),
                   id=f"table1-{k}") for k in (1, 2, 11, 37, 45)),
    pytest.param(star(5), [None] * 5, TABLE1_LINK / 5, id="no-cap"),
    *(cap_near_share(k, offset) for k in (1, 3, 4) for offset in (5e-10, -5e-10)),
    pytest.param(star(3, (None,), (None,)), [None] * 3, math.inf, id="no-capacity"),
    pytest.param(twice, [TABLE1_CAP] * 4, TABLE1_LINK / 4, id="link-twice"),
])
def test_symmetric_fill_matches_reference(paths, caps, rate):
    flows, oracle = fill_both(paths, caps)
    assert_shaped(flows)
    assert_same_rates(flows, oracle)
    assert [f.rate for f in flows] == [rate] * len(flows)


def test_table1_shape_covers_each_round_one_residue():
    # What a shared link has left after round 1 raises k flows by C/k:
    # exactly 0, below 0 (k = 11), or above _EPS (k = 37, 45), where no
    # link saturates and the rounds' numerical corner freezes every flow.
    def residue(k):
        return TABLE1_LINK - (TABLE1_LINK / k) * k

    assert residue(2) == 0.0
    assert residue(11) < 0.0
    assert residue(37) > _EPS and residue(45) > _EPS


def slow_private_link():
    service = Link("service", TABLE1_LINK)
    rx = [Link(f"node{i}.rx", TABLE1_LINK) for i in range(3)]
    return [(service, link) for link in [*rx, Link("slow.rx", 1e6)]]


def pair_and_solo():
    # Same capacity at each position, but two flows share one link there
    # and the third has its own: round 1 saturates only the shared one.
    service, pair = Link("service", 100.0), Link("pair", 10.0)
    return [(service, pair), (service, pair), (service, Link("solo", 10.0))]


def longer_path():
    service = Link("service", 100.0)
    return [
        (service, Link("a", 100.0)),
        (service, Link("b", 100.0), Link("slow", 10.0)),
    ]


@pytest.mark.parametrize("paths, caps, rates", [
    pytest.param(slow_private_link, [None] * 4,
                 [(TABLE1_LINK - 1e6) / 3] * 3 + [1e6], id="private-capacity"),
    pytest.param(pair_and_solo, [None] * 3, [5.0, 5.0, 10.0], id="flow-count"),
    pytest.param(longer_path, [None] * 2, [90.0, 10.0], id="path-length"),
    pytest.param(star(3), [TABLE1_CAP, TABLE1_CAP, 1e6], [5.75e6, 5.75e6, 1e6],
                 id="member-cap"),
])
def test_asymmetric_fill_takes_the_rounds(paths, caps, rates):
    # Without the last flow the component keeps a shape; that flow's
    # join drops it, and the rounds give the reference's rates.
    before, _ = fill_both(lambda: paths()[:-1], caps[:-1])
    assert_shaped(before)
    flows, oracle = fill_both(paths, caps)
    assert all(f._comp is flows[0]._comp for f in flows)
    assert flows[0]._comp.shape is None
    assert_same_rates(flows, oracle)
    assert [f.rate for f in flows] == pytest.approx(rates)


capacity = st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e10))


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=60),
    shared=st.lists(capacity, min_size=1, max_size=3),
    private=st.lists(capacity, max_size=3),
    cap=capacity,
)
def test_random_symmetric_fill_matches_reference(k, shared, private, cap):
    """k flows that cross the same shared links, then private links of
    the same capacities, form one shaped component and fill like the
    reference."""
    flows, oracle = fill_both(star(k, shared, private), [cap] * k)
    assert_shaped(flows)
    assert_same_rates(flows, oracle)
