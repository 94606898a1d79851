"""Regression tests for latent netsim/engine bugs fixed alongside telemetry.

Each test pins one fix:

* empty ``AnyOf`` deadlock — now triggers immediately, mirroring AllOf;
* interrupt-during-condition — the orphaned AllOf/AnyOf detaches from
  its children instead of ghost-firing later;
* ``Link.utilization()`` — infinite-rate flows excluded, result clamped
  to [0, 1];
* wakeup scheduling — recompute() storms no longer grow the event heap
  without bound;
* ``FlowNetwork.bytes_moved`` — a pure read, so observing it mid-run no
  longer moves completion instants.
"""

import math

import pytest

from repro.netsim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    Link,
    FlowNetwork,
)


def make_net():
    env = Environment()
    return env, FlowNetwork(env)


# -- empty-condition semantics ------------------------------------------------

def test_empty_anyof_triggers_immediately():
    env = Environment()
    log = []

    def proc():
        value = yield AnyOf(env, [])
        log.append((env.now, value))

    env.process(proc())
    env.run()
    assert log == [(0.0, ())]


def test_empty_allof_still_triggers_immediately():
    env = Environment()
    log = []

    def proc():
        value = yield AllOf(env, [])
        log.append((env.now, value))

    env.process(proc())
    env.run()
    assert log == [(0.0, ())]


def test_empty_anyof_mixed_with_real_work_does_not_deadlock():
    """The original symptom: a dynamically built empty wait-set hangs."""
    env = Environment()
    order = []

    def waiter():
        pending = []  # e.g. "wait for any in-flight download" with none active
        yield AnyOf(env, pending)
        order.append("anyof")
        yield env.timeout(3)
        order.append("done")

    env.process(waiter())
    env.run()
    assert order == ["anyof", "done"]
    assert env.now == 3.0


# -- interrupt during a condition ---------------------------------------------

def test_interrupt_during_anyof_detaches_condition():
    env = Environment()
    e1, e2 = env.event(), env.event()
    holder = {}
    caught = []

    def waiter():
        cond = AnyOf(env, (e1, e2))
        holder["cond"] = cond
        try:
            yield cond
        except Interrupt as err:
            caught.append(err.cause)

    proc = env.process(waiter())

    def killer():
        yield env.timeout(1)
        proc.interrupt("power cycle")

    env.process(killer())
    env.run()
    cond = holder["cond"]
    assert caught == ["power cycle"]
    # The orphaned condition is fully unhooked from its children ...
    assert cond._on_child not in e1.callbacks
    assert cond._on_child not in e2.callbacks
    # ... so their later dispatch cannot ghost-fire it.
    e1.succeed("late")
    e2.succeed("later")
    env.run()
    assert not cond.triggered


def test_interrupt_during_allof_no_double_count():
    env = Environment()
    ev = env.event()
    holder = {}

    def waiter():
        cond = AllOf(env, (ev, env.timeout(10)))
        holder["cond"] = cond
        try:
            yield cond
        except Interrupt:
            # Re-wait on the bare child: this resume path used to race
            # the orphaned condition's own bookkeeping on ``ev``.
            value = yield ev
            return value

    proc = env.process(waiter())

    def killer():
        yield env.timeout(1)
        proc.interrupt()
        yield env.timeout(1)
        ev.succeed("payload")

    env.process(killer())
    env.run()
    assert proc.value == "payload"
    assert not holder["cond"].triggered


def test_interrupt_during_plain_event_still_works():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except Interrupt as err:
            caught.append(err.cause)

    proc = env.process(waiter())

    def killer():
        yield env.timeout(2)
        proc.interrupt("bye")

    env.process(killer())
    env.run()
    assert caught == ["bye"]
    assert ev.callbacks == []


# -- utilization bounds -------------------------------------------------------

def test_utilization_excludes_infinite_rate_flows():
    env, net = make_net()
    backplane = Link("backplane", None)
    flow = net.transfer([backplane], 1e6)
    assert math.isinf(flow.rate)
    # The link later regains a finite capacity (NIC re-provisioned)
    # before any recompute(): the stale inf-rate flow must not poison
    # the gauge.
    backplane.capacity = 100.0
    util = backplane.utilization()
    assert util == 0.0
    assert 0.0 <= util <= 1.0


def test_utilization_clamped_under_transient_oversubscription():
    env, net = make_net()
    link = Link("nic", 100.0)
    net.transfer([link], 1e6)
    assert link.utilization() == pytest.approx(1.0)
    # Degrade the capacity under a live flow, before recompute() runs.
    link.capacity = 40.0
    assert link.utilization() == 1.0
    net.recompute([link])
    assert link.utilization() == pytest.approx(1.0)


def test_utilization_unconstrained_link_is_zero():
    env, net = make_net()
    link = Link("switch", None)
    net.transfer([link, Link("nic", 50.0)], 1e6)
    assert link.utilization() == 0.0


# -- wakeup scheduling / event-queue growth -----------------------------------

def test_recompute_storm_keeps_event_queue_bounded():
    env, net = make_net()
    link = Link("l", 100.0)
    net.transfer([link], 1e9)  # completes far in the future
    baseline = len(env._queue)
    for _ in range(500):
        net.recompute([link])
    # The needed wake time never moved, so no new Timeout was pushed at
    # all (the seed behaviour leaked one dead Timeout per recompute).
    assert len(env._queue) <= baseline + 1


def test_flapping_recompute_keeps_event_queue_bounded():
    env, net = make_net()
    link = Link("l", 100.0)
    net.transfer([link], 1e9)
    for _ in range(300):
        link.capacity = 10.0  # degrade: completion recedes
        net.recompute([link])
        link.capacity = 100.0  # restore: completion moves closer -> new wakeup
        net.recompute([link])
    # Superseded wakeups are cancelled and compacted, so the heap holds
    # a bounded number of dead entries (compaction threshold), not one
    # per flap.
    assert len(env._queue) < 150


def test_stale_wakeup_does_not_fire_flow_logic():
    env, net = make_net()
    link = Link("l", 100.0)
    slow = net.transfer([link], 1000.0)  # due at t=10
    fast = net.transfer([link], 10.0)  # re-plans the wakeup
    env.run(until=slow.done)
    assert env.now == pytest.approx(10.1)  # 10B at 50B/s, then 990B at 100B/s
    assert slow.finished_at == pytest.approx(10.1)
    assert fast.finished_at == pytest.approx(0.2)


def test_completion_times_survive_recompute_storm():
    env, net = make_net()
    link = Link("l", 100.0)
    flow = net.transfer([link], 1000.0)
    for _ in range(50):
        net.recompute([link])
    env.run(until=flow.done)
    assert env.now == pytest.approx(10.0)


# -- observer effects -----------------------------------------------------------

def _six_flows(read_every=None):
    """Six overlapping flows; optionally a process reads ``bytes_moved``."""
    env, net = make_net()
    a, b, c = Link("a", 100.0), Link("b", 70.0), Link("c", None)
    plan = [
        (0.0, (a,), 900.0, None),
        (0.7, (a, b), 650.0, 30.0),
        (1.3, (b,), 500.0, None),
        (2.1, (a, c), 400.0, 45.0),
        (2.9, (b, c), 700.0, None),
        (3.4, (a,), 300.0, 20.0),
    ]
    flows = []

    def starter():
        for at, path, size, cap in plan:
            yield env.timeout(at - env.now)
            flows.append(net.transfer(path, size, max_rate=cap))

    def reader():
        while len(flows) < len(plan) or any(f.finished_at is None for f in flows):
            yield env.timeout(read_every)
            net.bytes_moved

    env.process(starter())
    if read_every is not None:
        env.process(reader())
    env.run()
    return [f.finished_at for f in flows], net.bytes_moved


def test_reading_bytes_moved_does_not_move_completions():
    # A read must not credit live flows: a credit splits a flow's float
    # progress, which moves all six completion instants in the last bits.
    quiet, quiet_total = _six_flows()
    observed, observed_total = _six_flows(read_every=0.113)
    assert observed == quiet
    assert observed_total == quiet_total == pytest.approx(3450.0)
