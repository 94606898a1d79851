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
*down* (drain) one replica only after ``HOLD_TICKS`` consecutive calm
ticks, and after every action hold a ``COOLDOWN`` so decisions cannot
oscillate with the sampling phase.  It draws no random numbers, so the
same gauges always produce the same :class:`ScaleEvent` trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..netsim import Interrupt
from ..netsim.http import MAX_CONCURRENT

__all__ = ["Autoscaler", "ScaleEvent"]

# The control law.
#: seconds between gauge evaluations
INTERVAL = 15.0
#: queue depth at/above which a tick counts as pressure
QUEUE_HIGH = 8.0
#: in-flight as a fraction of the admission cap counting as pressure
INFLIGHT_HIGH_FRAC = 0.9
#: frontend NIC tx utilization counting as pressure
UTIL_HIGH = 0.9
#: any shed (rejected delta) this large in one tick is pressure
SHED_HIGH = 1.0
#: calm = every pressure signal below this fraction of its high mark
LOW_FRAC = 0.3
#: consecutive calm ticks required before draining one replica
HOLD_TICKS = 3
#: seconds of enforced inaction after any scale action: the ticks that
#: fall within it, the one at its end included, take no action
COOLDOWN = 45.0
MIN_REPLICAS = 0
MAX_REPLICAS = 8


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
    ):
        self.env = env
        self.replica_set = replica_set
        self.gauges = gauges
        self.events: list[ScaleEvent] = []
        self._last_rejected = 0.0
        self._calm_ticks = 0
        #: ticks left in the cooldown; counted, not timed, so float
        #: rounding of the tick instants cannot move its end
        self._held_ticks = 0
        self._proc = env.process(self._run(), name="autoscaler")

    # -- wiring ------------------------------------------------------------
    @classmethod
    def from_monitoring(
        cls,
        env,
        replica_set,
        aggregator,
        frontend_host: str,
    ) -> "Autoscaler":
        """Drive the scaler from the monitoring aggregator's last packet,
        whose metrics dict it reads in place and never writes."""

        def gauges() -> dict:
            packet = aggregator.last_packet(frontend_host)
            return {} if packet is None else packet.metrics

        return cls(env, replica_set, gauges)

    @property
    def n_replicas(self) -> int:
        return self.replica_set.n_replicas

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("autoscaler stopped")
        self._proc = None

    # -- the control loop --------------------------------------------------
    def _run(self):
        try:
            while True:
                yield self.env.timeout(INTERVAL)
                self.replica_set.reap_drained()
                self._tick(self.gauges() or {})
        except Interrupt:
            pass  # stop() retires the loop

    def _tick(self, metrics: dict) -> None:
        rejected = metrics.get("http.rejected", self._last_rejected)
        shed_delta = max(rejected - self._last_rejected, 0.0)
        self._last_rejected = rejected
        queue = metrics.get("http.queue_depth", 0.0)
        in_flight = metrics.get("http.in_flight", 0.0)
        util = metrics.get("net.tx_util", 0.0)
        # The install server's admission cap sets the in-flight mark.
        inflight_high = INFLIGHT_HIGH_FRAC * MAX_CONCURRENT

        reasons = []
        if queue >= QUEUE_HIGH:
            reasons.append(f"queue_depth={queue:g}")
        if in_flight >= inflight_high:
            reasons.append(f"in_flight={in_flight:g}")
        if util >= UTIL_HIGH:
            reasons.append(f"tx_util={util:.2f}")
        if shed_delta >= SHED_HIGH:
            reasons.append(f"shed={shed_delta:g}")

        calm = (
            queue <= LOW_FRAC * QUEUE_HIGH
            and in_flight <= LOW_FRAC * inflight_high
            and util <= LOW_FRAC * UTIL_HIGH
            and shed_delta == 0.0
        )
        self._calm_ticks = self._calm_ticks + 1 if calm else 0

        if self._held_ticks:
            self._held_ticks -= 1
            return
        if reasons and self.n_replicas < MAX_REPLICAS:
            self._action(
                "scale-up", ", ".join(reasons), self.replica_set.add_replica
            )
        elif (
            not reasons
            and self._calm_ticks >= HOLD_TICKS
            and self.n_replicas > MIN_REPLICAS
        ):
            self._action(
                "scale-down",
                f"calm for {self._calm_ticks} ticks",
                self.replica_set.drain_replica,
            )
            self._calm_ticks = 0

    def _action(self, action: str, reason: str, mutate) -> None:
        """Apply one scaling action and record it as an ``autoscale`` span.

        A span (not an event) so the ``service`` lifecycle records the
        replica start/drain emits parent here via ambient context — the
        mutation is synchronous, so holding the context is safe.
        """
        tracer = self.env.tracer
        span = (
            tracer.span("autoscale", action, reason=reason)
            if tracer.enabled
            else None
        )
        with tracer.context(span):
            mutate()
        self._held_ticks = int(COOLDOWN // INTERVAL)
        event = ScaleEvent(self.env.now, action, self.n_replicas, reason)
        self.events.append(event)
        if span is not None:
            span.end(replicas=self.n_replicas)
            tracer.metrics.gauge("autoscaler.replicas", self.n_replicas)
