"""Gauge-driven autoscaling of install-server replicas.

The storm problem: after a whole-site power restore every node pulls
its distribution at once, and a single frontend httpd either sheds most
of the herd or serializes it into hours.  The paper's §6.3 answer is
replication; this module closes the loop by *deciding* when to
replicate, from the same Ganglia-style gauges an operator would watch:

* ``http.in_flight`` / ``http.queue_depth`` — admission pressure;
* ``http.rejected`` (rate of change) — active shedding;
* ``net.tx_util`` — frontend NIC saturation.

The control law is deliberately boring and deterministic: scale *up*
one replica when any pressure signal crosses its high-water mark, scale
*down* (drain) one replica only after ``hold_ticks`` consecutive calm
ticks, and after every action hold a seeded cooldown so decisions
cannot oscillate with the sampling phase.  All randomness flows from
``AutoscalerPolicy.seed``, so the same run always produces the same
:class:`ScaleEvent` trajectory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..netsim import Interrupt

__all__ = ["AutoscalerPolicy", "Autoscaler", "ScaleEvent"]


@dataclass(frozen=True)
class AutoscalerPolicy:
    """The control-law knobs, validated at construction."""

    #: seconds between gauge evaluations
    interval: float = 30.0
    #: queue depth at/above which a tick counts as pressure
    queue_high: float = 8.0
    #: in-flight as a fraction of max_concurrent counting as pressure
    inflight_high_frac: float = 0.9
    #: frontend NIC tx utilization counting as pressure
    util_high: float = 0.9
    #: any shed (rejected delta) this large in one tick is pressure
    shed_high: float = 1.0
    #: calm = every pressure signal below this fraction of its high mark
    low_frac: float = 0.3
    #: consecutive calm ticks required before draining one replica
    hold_ticks: int = 3
    #: seconds of enforced inaction after any scale action
    cooldown: float = 120.0
    #: cooldown is stretched by up to this fraction, seeded
    cooldown_jitter: float = 0.25
    min_replicas: int = 0
    max_replicas: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if not 0 < self.inflight_high_frac <= 1:
            raise ValueError("inflight_high_frac must be in (0, 1]")
        if not 0 < self.util_high <= 1:
            raise ValueError("util_high must be in (0, 1]")
        if not 0 <= self.low_frac < 1:
            raise ValueError("low_frac must be in [0, 1)")
        if self.hold_ticks < 1:
            raise ValueError("hold_ticks must be at least 1")
        if self.cooldown < 0 or self.cooldown_jitter < 0:
            raise ValueError("cooldown knobs must be non-negative")
        if not 0 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 0 <= min_replicas <= max_replicas")


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler decision, timestamped for the trajectory report."""

    t: float
    action: str      # "scale-up" | "scale-down"
    replicas: int    # replica count after the action
    reason: str


class Autoscaler:
    """Watches aggregator gauges; adds/drains install-server replicas.

    ``gauges`` is any callable returning the current frontend metric
    dict (name -> float); :meth:`from_monitoring` builds one from a
    :class:`~repro.monitoring.MetricAggregator`, which is the production
    wiring — the autoscaler sees exactly what the monitoring stack
    published, delays and all, not the simulation's ground truth.
    """

    def __init__(
        self,
        env,
        replica_set,
        gauges: Callable[[], dict],
        policy: Optional[AutoscalerPolicy] = None,
    ):
        self.env = env
        self.replica_set = replica_set
        self.gauges = gauges
        self.policy = policy or AutoscalerPolicy()
        self.events: list[ScaleEvent] = []
        self._rng = random.Random(("autoscaler", self.policy.seed).__repr__())
        self._last_rejected = 0.0
        self._calm_ticks = 0
        self._cooldown_until = 0.0
        self._proc = env.process(self._run(), name="autoscaler")

    # -- wiring ------------------------------------------------------------
    @classmethod
    def from_monitoring(
        cls,
        env,
        replica_set,
        aggregator,
        frontend_host: str,
        policy: Optional[AutoscalerPolicy] = None,
    ) -> "Autoscaler":
        """Drive the scaler from the monitoring aggregator's last packet,
        whose metrics dict it reads in place and never writes."""

        def gauges() -> dict:
            packet = aggregator.last_packet(frontend_host)
            return {} if packet is None else packet.metrics

        return cls(env, replica_set, gauges, policy=policy)

    @property
    def n_replicas(self) -> int:
        return self.replica_set.n_replicas

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("autoscaler stopped")
        self._proc = None

    # -- the control loop --------------------------------------------------
    def _run(self):
        pol = self.policy
        try:
            while True:
                yield self.env.timeout(pol.interval)
                self.replica_set.reap_drained()
                self._tick(self.gauges() or {})
        except Interrupt:
            pass  # stop() retires the loop

    def _tick(self, metrics: dict) -> None:
        pol = self.policy
        rejected = metrics.get("http.rejected", self._last_rejected)
        shed_delta = max(rejected - self._last_rejected, 0.0)
        self._last_rejected = rejected
        queue = metrics.get("http.queue_depth", 0.0)
        in_flight = metrics.get("http.in_flight", 0.0)
        util = metrics.get("net.tx_util", 0.0)
        inflight_high = self._inflight_high()

        reasons = []
        if queue >= pol.queue_high:
            reasons.append(f"queue_depth={queue:g}")
        if inflight_high is not None and in_flight >= inflight_high:
            reasons.append(f"in_flight={in_flight:g}")
        if util >= pol.util_high:
            reasons.append(f"tx_util={util:.2f}")
        if shed_delta >= pol.shed_high:
            reasons.append(f"shed={shed_delta:g}")

        calm = (
            queue <= pol.low_frac * pol.queue_high
            and (inflight_high is None or in_flight <= pol.low_frac * inflight_high)
            and util <= pol.low_frac * pol.util_high
            and shed_delta == 0.0
        )
        self._calm_ticks = self._calm_ticks + 1 if calm else 0

        if self.env.now < self._cooldown_until:
            return
        if reasons and self.n_replicas < pol.max_replicas:
            self._action(
                "scale-up", ", ".join(reasons), self.replica_set.add_replica
            )
        elif (
            not reasons
            and self._calm_ticks >= pol.hold_ticks
            and self.n_replicas > pol.min_replicas
        ):
            self._action(
                "scale-down",
                f"calm for {self._calm_ticks} ticks",
                self.replica_set.drain_replica,
            )
            self._calm_ticks = 0

    def _inflight_high(self) -> Optional[float]:
        """Pressure threshold for in-flight, from the admission config."""
        admission = self.replica_set.primary.http.admission
        if admission is None:
            return None
        return self.policy.inflight_high_frac * admission.max_concurrent

    def _action(self, action: str, reason: str, mutate) -> None:
        """Apply one scaling action and record it as an ``autoscale`` span.

        A span (not an event) so the ``service`` lifecycle records the
        replica start/drain emits parent here via ambient context — the
        mutation is synchronous, so holding the context is safe.
        """
        pol = self.policy
        tracer = self.env.tracer
        span = (
            tracer.span("autoscale", action, reason=reason)
            if tracer.enabled
            else None
        )
        with tracer.context(span):
            mutate()
        hold = pol.cooldown * (1.0 + pol.cooldown_jitter * self._rng.random())
        self._cooldown_until = self.env.now + hold
        event = ScaleEvent(self.env.now, action, self.n_replicas, reason)
        self.events.append(event)
        if span is not None:
            span.end(replicas=self.n_replicas)
            tracer.metrics.gauge("autoscaler.replicas", self.n_replicas)
