"""Scaling-path tests: incremental fair-share vs the full recompute.

The incremental allocator must be *indistinguishable* from the full
recompute oracle — not approximately, but bit-for-bit: crediting,
completion sweeps and wakeup scheduling share one code path, and the
oracle merely refills components the incremental network proves
untouched.  The differential tests here drive both through the same
randomized workload and assert exact float equality.
"""

import math
import random

import pytest

from repro.netsim import (
    Environment,
    Event,
    Flow,
    FlowNetwork,
    Link,
    Process,
    Timeout,
)
from repro.netsim.engine import Environment as _Env
from repro.netsim.flows import _Component
from repro.telemetry import NULL_TRACER, Tracer
from repro.telemetry.tracer import Span

from .full_recompute import FullRecomputeNetwork


# -- differential: incremental vs full recompute --------------------------

def _random_script(seed, n_links=8, n_ops=80):
    """A deterministic op schedule: starts, cancels, capacity changes."""
    rng = random.Random(("netsim-diff", seed).__repr__())
    caps = [rng.choice([50.0, 100.0, 200.0, None]) for _ in range(n_links)]
    if all(c is None for c in caps):
        caps[0] = 100.0
    ops = []
    t = 0.0
    n_started = 0
    for _ in range(n_ops):
        t += rng.uniform(0.05, 2.5)
        roll = rng.random()
        if roll < 0.6 or n_started == 0:
            n = rng.randint(1, 3)
            idxs = sorted(rng.sample(range(n_links), n))
            size = rng.uniform(20.0, 800.0)
            max_rate = rng.choice([None, None, None, 15.0, 60.0])
            ops.append((t, "start", (tuple(idxs), size, max_rate)))
            n_started += 1
        elif roll < 0.8:
            ops.append((t, "cancel", (rng.randrange(n_started),)))
        else:
            j = rng.randrange(n_links)
            ops.append((t, "setcap", (j, rng.choice([25.0, 75.0, 150.0]))))
    return caps, ops


def _random_corner_script(seed, n_links=6, n_ops=70):
    """Like :func:`_random_script`, but aimed at the fill's corner cases.

    Paths may list one link twice (the fill must count it once), caps
    may be ``math.inf``, and most flows carry one of several caps below
    their fair share, so a component's caps freeze in different rounds.
    """
    rng = random.Random(("netsim-diff-corners", seed).__repr__())
    caps = [rng.choice([60.0, 120.0, 240.0, None]) for _ in range(n_links)]
    caps[0] = 240.0  # one loaded link every flow may share
    ops = []
    t = 0.0
    n_started = 0
    for _ in range(n_ops):
        t += rng.uniform(0.05, 1.5)
        roll = rng.random()
        if roll < 0.7 or n_started == 0:
            idxs = [0] if rng.random() < 0.6 else []
            idxs += rng.sample(range(1, n_links), rng.randint(0, 2))
            if not idxs or rng.random() < 0.25:
                idxs.append(rng.choice(idxs or range(n_links)))  # a repeat
            rng.shuffle(idxs)
            size = rng.uniform(20.0, 600.0)
            max_rate = rng.choice([None, math.inf, 4.0, 9.0, 17.0, 33.0, 33.0])
            ops.append((t, "start", (tuple(idxs), size, max_rate)))
            n_started += 1
        elif roll < 0.85:
            ops.append((t, "cancel", (rng.randrange(n_started),)))
        else:
            j = rng.randrange(n_links)
            ops.append((t, "setcap", (j, rng.choice([30.0, 90.0, 180.0]))))
    return caps, ops


def _run_world(network_cls, caps, ops):
    env = Environment()
    tracer = Tracer().attach(env)
    net = network_cls(env)
    links = [Link(f"l{i}", c) for i, c in enumerate(caps)]
    created = []
    snapshots = []

    def driver():
        for at, op, params in ops:
            if at > env.now:
                yield env.timeout(at - env.now)
            if op == "start":
                idxs, size, max_rate = params
                flow = net.transfer(
                    [links[i] for i in idxs],
                    size,
                    max_rate=max_rate,
                    label=f"f{len(created)}",
                )
                flow.done.callbacks.append(lambda _ev: None)  # defuse failures
                created.append(flow)
            elif op == "cancel":
                (j,) = params
                if created[j].finished_at is None:
                    created[j].cancel()
            elif op == "tracing":
                (on,) = params
                (tracer if on else NULL_TRACER).attach(env)
            else:
                j, cap = params
                links[j].capacity = cap
                net.recompute([links[j]])
            snapshots.append((env.now, tuple(f.rate for f in created)))

    env.process(driver())
    env.run()
    outcomes = [(f.label, f.finished_at, f.remaining) for f in created]
    carried = [link.bytes_carried for link in links]
    metrics = tracer.metrics
    utilization = {
        name: metrics.samples(name)
        for name in metrics.gauge_names()
        if name.startswith("link.util/")
    }
    return outcomes, snapshots, carried, net._bytes_moved, utilization


@pytest.mark.parametrize("seed", range(6))
def test_incremental_matches_full_recompute_exactly(seed):
    caps, ops = _random_script(seed)
    incr = _run_world(FlowNetwork, caps, ops)
    full = _run_world(FullRecomputeNetwork, caps, ops)
    # Exact equality, not approx: completion instants, every mid-run rate
    # snapshot, per-link byte counters, the global moved total, and every
    # link.util/* gauge series.
    assert incr == full


@pytest.mark.parametrize("seed", range(6))
def test_incremental_matches_full_recompute_on_fill_corners(seed):
    caps, ops = _random_corner_script(seed)
    incr = _run_world(FlowNetwork, caps, ops)
    full = _run_world(FullRecomputeNetwork, caps, ops)
    assert incr == full


def test_utilization_matches_full_recompute_when_tracing_pauses():
    """Links that drain or fill while tracing is off are sampled at the
    first fill after tracing resumes, even when that fill is elsewhere."""
    caps = [100.0, 100.0, 100.0]
    ops = [
        (0.0, "start", ((0,), 1000.0, None)),
        (0.0, "start", ((1,), 1000.0, None)),
        (1.0, "tracing", (False,)),
        (1.0, "cancel", (1,)),
        (1.5, "start", ((2,), 1000.0, None)),
        (2.0, "tracing", (True,)),
        (3.0, "start", ((0,), 1000.0, None)),
    ]
    incr = _run_world(FlowNetwork, caps, ops)
    assert incr == _run_world(FullRecomputeNetwork, caps, ops)
    util = incr[4]
    assert util["link.util/l1"][-1] == (3.0, 0.0)
    assert util["link.util/l2"][0] == (3.0, 1.0)


# -- satellite 1: completions must not leave stale allocation state -------

def test_chained_transfer_after_completion_gets_fair_share():
    """A new transfer started from a ``done`` callback at the completion
    timestamp must be allocated against the *live* flow set."""
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    chained = []

    f1 = net.transfer([link], 100.0, label="f1")
    f2 = net.transfer([link], 200.0, label="f2")
    f1.done.callbacks.append(
        lambda _ev: chained.append(net.transfer([link], 300.0, label="chained"))
    )
    # Run through t=2.0 so the done callback itself dispatches.
    env.run(until=2.0)
    assert f1.finished_at == pytest.approx(2.0)
    assert f2.rate == 50.0 and chained[0].rate == 50.0
    env.run()
    assert f2.finished_at == pytest.approx(4.0)
    assert chained[0].finished_at == pytest.approx(6.0)


def test_reentrant_completion_rebuilds_membership(monkeypatch):
    """A transfer started *synchronously inside* completion handling
    (mid-reallocation) must still get a correct rate: the allocator
    detects the reentry and redoes the fill from live membership."""
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    chained = []
    orig_complete = FlowNetwork._complete

    def complete_and_chain(self, flow):
        orig_complete(self, flow)
        if not chained:
            chained.append(self.transfer([link], 300.0, label="chained"))

    monkeypatch.setattr(FlowNetwork, "_complete", complete_and_chain)
    f1 = net.transfer([link], 100.0, label="f1")
    f2 = net.transfer([link], 200.0, label="f2")
    env.run(until=f1.done)
    # f1 finished at t=2; f2 (100 left) and the chained flow split the link.
    assert f2.rate == 50.0 and chained[0].rate == 50.0
    env.run()
    assert f2.finished_at == pytest.approx(4.0)
    assert chained[0].finished_at == pytest.approx(6.0)
    assert f2.remaining == 0.0 and chained[0].remaining == 0.0


def test_reentrant_completion_samples_links_drained_after_it(monkeypatch):
    """A fill re-entered from completion handling samples the links
    touched so far and clears them; a link drained later in the same
    completion sweep must still be sampled at the next fill."""
    links = {}
    orig_complete = FlowNetwork._complete

    def complete_and_chain(self, flow):
        orig_complete(self, flow)
        if flow.label == "a":
            self.transfer([links["c"]], 300.0, label="chained")

    monkeypatch.setattr(FlowNetwork, "_complete", complete_and_chain)

    def world(network_cls):
        env = Environment()
        tracer = Tracer().attach(env)
        net = network_cls(env)
        links.update((name, Link(name, 100.0)) for name in "abc")
        # a and b drain in one sweep at t=1; a's completion re-enters.
        net.transfer([links["a"]], 100.0, label="a")
        net.transfer([links["b"]], 100.0, label="b")

        def late():
            yield env.timeout(2.0)
            net.transfer([links["c"]], 100.0, label="late")

        env.process(late())
        env.run()
        return {name: tracer.metrics.samples(f"link.util/{name}") for name in links}

    incr = world(FlowNetwork)
    assert incr == world(FullRecomputeNetwork)
    assert incr["b"][-1] == (2.0, 0.0)


# -- satellite 3: wakeup storms must not grow the event heap --------------

def test_recompute_storm_keeps_event_queue_bounded():
    """Fault flapping (capacity bouncing under live flows) reschedules
    the completion wakeup constantly; lazy cancellation + compaction
    must keep dead timers a bounded fraction of the queue."""
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    flows = [net.transfer([link], 1e6, label=f"f{i}") for i in range(5)]

    def flapper():
        for i in range(2000):
            link.capacity = 80.0 if i % 2 else 100.0
            net.recompute([link])
            yield env.timeout(0.01)

    env.process(flapper())
    env.run(until=25.0)
    assert all(f.finished_at is None for f in flows)  # still in flight
    assert len(env._queue) < 200  # 2000 reschedules, bounded residue
    # The completion heap is lazily compacted on the same principle.
    assert len(net._eta_heap) <= max(64, 4 * (len(net._flows) + 1)) + 1


def test_flows_through_matches_path_scan():
    env = Environment()
    net = FlowNetwork(env)
    a, b = Link("a", 100.0), Link("b", 100.0)
    fa = net.transfer([a], 1e3, label="fa")
    fab = net.transfer([a, b], 1e3, label="fab")
    fb = net.transfer([b], 1e3, label="fb")
    for link in (a, b):
        scan = [f for f in net._flows if link in f.path]
        assert net.flows_through(link) == scan  # same members, same order
    fab.cancel()
    assert net.flows_through(a) == [fa]
    assert net.flows_through(b) == [fb]


# -- hot classes stay dict-free -------------------------------------------

@pytest.mark.parametrize(
    "cls",
    [Event, Timeout, Process, _Env, Flow, Link, _Component, FlowNetwork, Span],
)
def test_hot_classes_have_no_instance_dict(cls):
    # 10k nodes mean millions of these; a single slotless class in the
    # MRO silently re-grows a per-instance __dict__.
    offenders = [c.__name__ for c in cls.__mro__ if "__dict__" in vars(c)]
    assert not offenders
