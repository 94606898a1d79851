"""The gauge-driven autoscaler: control law, hysteresis, cooldown, bounds."""

import pytest

from repro.netsim import AdmissionConfig, Environment
from repro.resilience import Autoscaler, AutoscalerPolicy


class FakeHttp:
    def __init__(self, admission):
        self.admission = admission


class FakePrimary:
    def __init__(self, admission):
        self.http = FakeHttp(admission)


class FakeReplicaSet:
    """Mimics InstallReplicaSet's scaling surface; records every call."""

    def __init__(self, admission=None):
        self.primary = FakePrimary(admission)
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


def make_scaler(metrics, policy=None, admission=None):
    env = Environment()
    rs = FakeReplicaSet(admission=admission)
    policy = policy or AutoscalerPolicy(
        interval=10.0, cooldown=0.0, cooldown_jitter=0.0
    )
    scaler = Autoscaler(env, rs, lambda: dict(metrics), policy)
    return env, rs, scaler, metrics


def test_policy_validation():
    with pytest.raises(ValueError, match="interval"):
        AutoscalerPolicy(interval=0.0)
    with pytest.raises(ValueError, match="inflight_high_frac"):
        AutoscalerPolicy(inflight_high_frac=1.5)
    with pytest.raises(ValueError, match="util_high"):
        AutoscalerPolicy(util_high=0.0)
    with pytest.raises(ValueError, match="low_frac"):
        AutoscalerPolicy(low_frac=1.0)
    with pytest.raises(ValueError, match="hold_ticks"):
        AutoscalerPolicy(hold_ticks=0)
    with pytest.raises(ValueError, match="cooldown"):
        AutoscalerPolicy(cooldown=-1.0)
    with pytest.raises(ValueError, match="min_replicas"):
        AutoscalerPolicy(min_replicas=5, max_replicas=2)


def test_queue_pressure_scales_up():
    env, rs, scaler, metrics = make_scaler(dict(CALM, **{"http.queue_depth": 9.0}))
    env.run(until=10.0)
    assert rs.n_replicas == 1
    assert scaler.events[-1].action == "scale-up"
    assert "queue_depth" in scaler.events[-1].reason


def test_shed_delta_scales_up_but_flat_rejected_does_not():
    metrics = dict(CALM, **{"http.rejected": 50.0})
    env, rs, scaler, metrics = make_scaler(metrics)
    env.run(until=10.0)
    # first tick: rejected jumped 0 -> 50, that is active shedding
    assert rs.n_replicas == 1
    env.run(until=30.0)
    # rejected stays at 50: no new sheds, no further scale-up
    assert rs.n_replicas == 1


def test_util_pressure_scales_up():
    env, rs, scaler, _ = make_scaler(dict(CALM, **{"net.tx_util": 0.95}))
    env.run(until=10.0)
    assert rs.n_replicas == 1
    assert "tx_util" in scaler.events[-1].reason


def test_inflight_threshold_comes_from_admission_config():
    admission = AdmissionConfig(max_concurrent=10)
    metrics = dict(CALM, **{"http.in_flight": 9.0})
    env, rs, scaler, _ = make_scaler(metrics, admission=admission)
    env.run(until=10.0)  # 9 >= 0.9 * 10
    assert rs.n_replicas == 1
    # without an admission config the in-flight signal is ignored
    env2, rs2, _, _ = make_scaler(dict(metrics))
    env2.run(until=10.0)
    assert rs2.n_replicas == 0


def test_scale_up_respects_max_replicas():
    policy = AutoscalerPolicy(interval=10.0, cooldown=0.0,
                              cooldown_jitter=0.0, max_replicas=2)
    env, rs, scaler, _ = make_scaler(
        dict(CALM, **{"http.queue_depth": 99.0}), policy=policy
    )
    env.run(until=100.0)
    assert rs.n_replicas == 2


def test_cooldown_blocks_back_to_back_actions():
    policy = AutoscalerPolicy(interval=10.0, cooldown=35.0, cooldown_jitter=0.0)
    env, rs, scaler, _ = make_scaler(
        dict(CALM, **{"http.queue_depth": 99.0}), policy=policy
    )
    env.run(until=40.0)
    # scale-up at t=10; ticks at 20, 30, 40 fall inside the 35s cooldown
    assert [e.t for e in scaler.events] == [10.0]
    env.run(until=50.0)
    assert [e.t for e in scaler.events] == [10.0, 50.0]


def test_cooldown_jitter_is_seeded_and_stretches_the_hold():
    def trajectory(seed):
        policy = AutoscalerPolicy(interval=10.0, cooldown=20.0,
                                  cooldown_jitter=0.5, seed=seed)
        env, _, scaler, _ = make_scaler(
            dict(CALM, **{"http.queue_depth": 99.0}), policy=policy
        )
        env.run(until=200.0)
        return [e.t for e in scaler.events]

    a, b = trajectory(1), trajectory(1)
    assert a == b  # same seed, same decisions
    # jittered cooldowns are never shorter than the base cooldown
    assert all(t1 - t0 >= 20.0 for t0, t1 in zip(a, a[1:]))


def test_drain_requires_consecutive_calm_ticks():
    policy = AutoscalerPolicy(interval=10.0, cooldown=0.0,
                              cooldown_jitter=0.0, hold_ticks=3)
    metrics = dict(CALM, **{"http.queue_depth": 9.0})
    env, rs, scaler, metrics = make_scaler(metrics, policy=policy)
    env.run(until=10.0)
    assert rs.n_replicas == 1
    metrics["http.queue_depth"] = 0.0  # pressure gone
    env.run(until=30.0)  # only 2 calm ticks so far
    assert rs.n_replicas == 1
    env.run(until=40.0)  # third consecutive calm tick: drain
    assert rs.n_replicas == 0
    assert scaler.events[-1].action == "scale-down"


def test_pressure_resets_the_calm_streak():
    policy = AutoscalerPolicy(interval=10.0, cooldown=0.0,
                              cooldown_jitter=0.0, hold_ticks=2,
                              max_replicas=1)
    metrics = dict(CALM, **{"http.queue_depth": 9.0})
    env, rs, scaler, metrics = make_scaler(metrics, policy=policy)
    env.run(until=10.0)
    assert rs.n_replicas == 1
    metrics["http.queue_depth"] = 0.0
    env.run(until=20.0)  # calm tick 1
    metrics["http.queue_depth"] = 9.0
    env.run(until=30.0)  # pressure: streak resets (already at max, no up)
    metrics["http.queue_depth"] = 0.0
    env.run(until=40.0)  # calm tick 1 again
    assert rs.n_replicas == 1
    env.run(until=50.0)  # calm tick 2: now it drains
    assert rs.n_replicas == 0


def test_drain_respects_min_replicas():
    policy = AutoscalerPolicy(interval=10.0, cooldown=0.0,
                              cooldown_jitter=0.0, hold_ticks=1,
                              min_replicas=0)
    env, rs, scaler, _ = make_scaler(dict(CALM), policy=policy)
    env.run(until=100.0)
    assert rs.n_replicas == 0  # never drains below the floor
    assert scaler.events == []


def test_loop_reaps_drained_replicas_and_stop_retires_it():
    env, rs, scaler, _ = make_scaler(dict(CALM))
    env.run(until=30.0)
    assert rs.reaps == 3
    scaler.stop()
    env.run(until=60.0)
    assert rs.reaps == 3  # loop is gone
    scaler.stop()  # idempotent


def test_missing_gauges_are_a_no_op_tick():
    env, rs, scaler, _ = make_scaler({})
    env.run(until=50.0)
    assert rs.n_replicas == 0
    assert scaler.events == []
