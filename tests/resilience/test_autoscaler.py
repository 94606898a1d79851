"""The gauge-driven autoscaler: control law, hysteresis, cooldown, bounds.

The control law is the module's constants: a tick every ``INTERVAL``
seconds, a hold of ``COOLDOWN`` seconds after each action (the tick at
its end held too), and ``HOLD_TICKS`` calm ticks before a drain.
"""

from repro.netsim import Environment
from repro.netsim.http import MAX_CONCURRENT
from repro.resilience import Autoscaler
from repro.resilience.autoscaler import (
    COOLDOWN,
    HOLD_TICKS,
    INFLIGHT_HIGH_FRAC,
    INTERVAL,
    MAX_REPLICAS,
)

#: from an action to the next possible one: the first tick after the hold
GAP = (COOLDOWN // INTERVAL + 1) * INTERVAL


class FakeReplicaSet:
    """Mimics InstallReplicaSet's scaling surface; records every call."""

    def __init__(self):
        self.n_replicas = 0
        self.calls = []
        self.reaps = 0

    def add_replica(self):
        self.n_replicas += 1
        self.calls.append(("up", self.n_replicas))

    def drain_replica(self):
        self.n_replicas -= 1
        self.calls.append(("down", self.n_replicas))

    def reap_drained(self):
        self.reaps += 1


CALM = {"http.queue_depth": 0.0, "http.in_flight": 0.0,
        "net.tx_util": 0.0, "http.rejected": 0.0}
#: a queue depth that is neither pressure nor calm
BUSY = 5.0


def make_scaler(metrics):
    env = Environment()
    rs = FakeReplicaSet()
    scaler = Autoscaler(env, rs, lambda: dict(metrics))
    return env, rs, scaler, metrics


def test_queue_pressure_scales_up():
    env, rs, scaler, metrics = make_scaler(dict(CALM, **{"http.queue_depth": 9.0}))
    env.run(until=INTERVAL)
    assert rs.n_replicas == 1
    assert scaler.events[-1].action == "scale-up"
    assert "queue_depth" in scaler.events[-1].reason


def test_shed_delta_scales_up_but_flat_rejected_does_not():
    metrics = dict(CALM, **{"http.rejected": 50.0})
    env, rs, scaler, metrics = make_scaler(metrics)
    env.run(until=INTERVAL)
    # first tick: rejected jumped 0 -> 50, that is active shedding
    assert rs.n_replicas == 1
    env.run(until=10 * INTERVAL)
    # rejected stays at 50: no new sheds, no further scale-up; the calm
    # ticks after the cooldown drain the replica again
    assert [e.action for e in scaler.events] == ["scale-up", "scale-down"]


def test_util_pressure_scales_up():
    env, rs, scaler, _ = make_scaler(dict(CALM, **{"net.tx_util": 0.95}))
    env.run(until=INTERVAL)
    assert rs.n_replicas == 1
    assert "tx_util" in scaler.events[-1].reason


def test_inflight_threshold_comes_from_admission_config():
    """The in-flight mark is a fraction of the admission cap."""
    mark = INFLIGHT_HIGH_FRAC * MAX_CONCURRENT
    env, rs, scaler, _ = make_scaler(dict(CALM, **{"http.in_flight": mark}))
    env.run(until=INTERVAL)
    assert rs.n_replicas == 1
    assert "in_flight" in scaler.events[-1].reason
    # just below the mark the in-flight signal is not pressure
    env2, rs2, _, _ = make_scaler(dict(CALM, **{"http.in_flight": mark - 0.5}))
    env2.run(until=INTERVAL)
    assert rs2.n_replicas == 0


def test_scale_up_respects_max_replicas():
    env, rs, scaler, _ = make_scaler(dict(CALM, **{"http.queue_depth": 99.0}))
    env.run(until=INTERVAL + MAX_REPLICAS * GAP)
    assert rs.n_replicas == MAX_REPLICAS
    assert len(scaler.events) == MAX_REPLICAS


def test_cooldown_blocks_back_to_back_actions():
    env, rs, scaler, _ = make_scaler(dict(CALM, **{"http.queue_depth": 99.0}))
    env.run(until=INTERVAL + COOLDOWN)
    # scale-up at the first tick; the ticks inside the cooldown do nothing
    assert [e.t for e in scaler.events] == [INTERVAL]
    env.run(until=INTERVAL + GAP)
    first, second = (e.t for e in scaler.events)
    assert second - first == GAP


def test_cooldown_is_a_fixed_45_s_hold():
    """Every hold is ``COOLDOWN`` (45 s): under steady pressure each
    action is followed by the first tick after it (60 s), and the tick
    exactly 45 s on is held."""
    assert COOLDOWN == 45.0 and GAP == 60.0
    env, _, scaler, _ = make_scaler(dict(CALM, **{"http.queue_depth": 99.0}))
    env.run(until=400.0)
    times = [e.t for e in scaler.events]
    assert times == [INTERVAL + k * GAP for k in range(7)]  # 15, 75, .., 375


def test_drain_requires_consecutive_calm_ticks():
    metrics = dict(CALM, **{"http.queue_depth": 9.0})
    env, rs, scaler, metrics = make_scaler(metrics)
    env.run(until=INTERVAL)
    assert rs.n_replicas == 1
    metrics["http.queue_depth"] = BUSY  # no pressure, not calm either
    t0 = 6 * INTERVAL  # a tick after the cooldown has run out
    assert t0 > INTERVAL + COOLDOWN
    env.run(until=t0)
    assert rs.n_replicas == 1
    metrics["http.queue_depth"] = 0.0  # calm
    env.run(until=t0 + (HOLD_TICKS - 1) * INTERVAL)
    assert rs.n_replicas == 1
    env.run(until=t0 + HOLD_TICKS * INTERVAL)  # the last calm tick: drain
    assert rs.n_replicas == 0
    assert scaler.events[-1].action == "scale-down"


def test_pressure_resets_the_calm_streak():
    metrics = dict(CALM, **{"http.queue_depth": 9.0})
    env, rs, scaler, metrics = make_scaler(metrics)
    env.run(until=INTERVAL)
    assert rs.n_replicas == 1
    metrics["http.queue_depth"] = 0.0
    env.run(until=HOLD_TICKS * INTERVAL)  # calm ticks 1 and 2
    metrics["http.queue_depth"] = 9.0
    env.run(until=(HOLD_TICKS + 1) * INTERVAL)  # pressure in the cooldown
    assert len(scaler.events) == 1  # held: no action, the streak resets
    metrics["http.queue_depth"] = 0.0
    t_drain = (2 * HOLD_TICKS + 1) * INTERVAL  # calm 1..HOLD_TICKS again
    assert t_drain - INTERVAL > INTERVAL + COOLDOWN  # cooldown over before
    env.run(until=t_drain - INTERVAL)
    assert rs.n_replicas == 1
    env.run(until=t_drain)  # now it drains
    assert rs.n_replicas == 0


def test_drain_respects_min_replicas():
    env, rs, scaler, _ = make_scaler(dict(CALM))
    env.run(until=10 * INTERVAL)
    assert rs.n_replicas == 0  # never drains below the floor
    assert scaler.events == []


def test_loop_reaps_drained_replicas_and_stop_retires_it():
    env, rs, scaler, _ = make_scaler(dict(CALM))
    env.run(until=3 * INTERVAL)
    assert rs.reaps == 3
    scaler.stop()
    env.run(until=6 * INTERVAL)
    assert rs.reaps == 3  # loop is gone
    scaler.stop()  # idempotent


def test_missing_gauges_are_a_no_op_tick():
    env, rs, scaler, _ = make_scaler({})
    env.run(until=5 * INTERVAL)
    assert rs.n_replicas == 0
    assert scaler.events == []
