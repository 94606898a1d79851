"""The install storm: whole-site power restore, replayed end to end.

The canonical large-cluster disaster (CERN's and LCG-1's operations
reports both open with it): utility power drops, every PDU goes dark,
and when power returns all N nodes boot *simultaneously* — each one
DHCPs, pulls its kickstart, and then its full distribution over HTTP in
one thundering herd against a single frontend.

:func:`run_storm` is the driver: it builds and integrates a cluster,
hardens the frontend (admission control with seeded Retry-After jitter,
circuit breakers, supervisor), stands up monitoring, optionally closes
the loop with a gauge-driven
:class:`~repro.resilience.Autoscaler` over an
:class:`~repro.services.httpd.InstallReplicaSet`, then arms the
``SitePowerFailure``/``PowerRestore`` fault pair and measures recovery.

The output is an SLO report — p99 install-HTTP latency, shed counts,
and time-to-stable-cluster — serialised as canonical JSON so the same
seed always produces a byte-identical artifact; the ``storm`` row of
the scenario manifest pins it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Optional

from ..cluster import MachineState
from ..installer import DEFAULT_CALIBRATION, InstallCalibration
from ..netsim import AdmissionConfig, AllOf, AnyOf, Interrupt
from ..quickbuild import RocksCluster, build_cluster
from ..services.httpd import InstallReplicaSet
from ..telemetry import Tracer

__all__ = ["StormOptions", "StormResult", "run_storm", "slo_json"]

SLO_FORMAT = "repro-storm-slo"
SLO_VERSION = 1


@dataclass(frozen=True)
class StormOptions:
    """Scenario knobs for :func:`run_storm` — all defaults deterministic."""

    n_nodes: int = 32
    seed: int = 42
    #: seconds after integration when the site loses power
    fail_at: float = 60.0
    #: seconds after integration when power is restored (the herd)
    restore_at: float = 360.0
    #: close the loop: autoscale install-server replicas from the gauges
    autoscale: bool = True
    #: per-node max seeded delay before the first DISCOVER after boot
    dhcp_stagger: float = 45.0
    #: admission control on the install httpd (and cloned to replicas)
    max_concurrent: int = 6
    queue_limit: int = 8
    retry_after: float = 20.0
    retry_jitter: float = 0.75
    #: autoscaler cadence and bounds
    scaler_interval: float = 15.0
    scaler_cooldown: float = 45.0
    max_replicas: int = 8
    #: monitoring sampling period (the gauges the scaler sees)
    monitor_interval: float = 15.0
    #: give up waiting for stability this long after the restore
    deadline: float = 4.0 * 3600.0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if not 0 <= self.fail_at < self.restore_at:
            raise ValueError("need 0 <= fail_at < restore_at")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")


@dataclass
class StormResult:
    """Everything one storm run produced, plus the SLO report."""

    options: StormOptions
    sim: RocksCluster
    tracer: Tracer
    report: dict
    injector: object
    resilience: object
    monitoring: object
    autoscaler: Optional[object] = None
    replica_set: Optional[InstallReplicaSet] = None
    scale_events: list = field(default_factory=list)

    @property
    def stable(self) -> bool:
        return bool(self.report["stable"])

    @property
    def time_to_stable(self) -> Optional[float]:
        return self.report["time_to_stable_s"]

    def slo_json(self) -> str:
        return slo_json(self.report)

    def render(self) -> str:
        rep = self.report
        lines = [
            f"install storm: {rep['n_nodes']} nodes, seed {rep['seed']}, "
            f"autoscale={'on' if rep['autoscale'] else 'off'}",
            f"  power lost t={self.options.fail_at:g}s, "
            f"restored t={self.options.restore_at:g}s",
        ]
        if rep["stable"]:
            lines.append(
                f"  stable cluster after {rep['time_to_stable_s']:.0f}s "
                f"({rep['nodes_up']}/{rep['n_nodes']} nodes up)"
            )
        else:
            lines.append(
                f"  NOT stable at deadline: {rep['nodes_up']}/{rep['n_nodes']} "
                f"nodes up"
            )
        http = rep["http"]
        lines.append(
            f"  install HTTP: {http['requests']} requests, "
            f"p50 {http['p50_s']:.1f}s, p99 {http['p99_s']:.1f}s"
        )
        shed = rep["shed"]
        lines.append(
            f"  shed: {shed['total']} rejected "
            f"(rate {shed['rate']:.3f}), last reject "
            f"{shed['last_reject_after_restore_s']:.0f}s after restore"
        )
        scaler = rep["autoscaler"]
        lines.append(
            f"  autoscaler: {scaler['actions']} action(s), "
            f"peak {scaler['peak_replicas']} replica(s), "
            f"final {scaler['final_replicas']}"
        )
        return "\n".join(lines)


def _round(value, places: int = 3):
    """Round every float in a JSON-ish structure (canonical artifact)."""
    if isinstance(value, float):
        return round(value, places)
    if isinstance(value, dict):
        return {k: _round(v, places) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v, places) for v in value]
    return value


def slo_json(report: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace, trailing newline."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _settle(env, machines):
    """Process: resolve once every machine has reached UP (one barrier).

    All state-watches arm simultaneously, so settle time is the max over
    machines rather than a rack-order serial walk — and a machine that
    flaps after reaching UP cannot be missed the way a serial walk
    misses hosts behind the cursor.
    """
    yield AllOf(env, [m.wait_for_state(MachineState.UP) for m in machines])
    return env.now


def run_storm(
    options: Optional[StormOptions] = None,
    calibration: InstallCalibration = DEFAULT_CALIBRATION,
    tracer: Optional[Tracer] = None,
) -> StormResult:
    """Replay the power-restore storm; returns the result + SLO report."""
    from ..faults import FaultInjector, FaultPlan, PowerRestore, SitePowerFailure
    from ..monitoring import MonitoringOptions, enable_cluster_monitoring
    from ..resilience import (
        Autoscaler,
        AutoscalerPolicy,
        ResilienceOptions,
        harden_frontend,
    )

    opts = options or StormOptions()
    tracer = Tracer() if tracer is None else tracer
    cal = dataclasses.replace(
        calibration, dhcp_stagger_seconds=opts.dhcp_stagger
    )
    sim = build_cluster(
        n_compute=opts.n_nodes, calibration=cal, seed=opts.seed, tracer=tracer
    )
    env = sim.env
    frontend = sim.frontend
    sim.integrate_all()
    t_integrated = env.now

    # Replica set first, so the breaker layer wraps the *balanced* source
    # and installs its per-backend avoidance hook on the balancer.
    replica_set = InstallReplicaSet(frontend.install_server)
    frontend.installer.source = replica_set
    admission = AdmissionConfig(
        max_concurrent=opts.max_concurrent,
        queue_limit=opts.queue_limit,
        retry_after=opts.retry_after,
        retry_jitter=opts.retry_jitter,
        jitter_seed=opts.seed,
    )
    resilience = harden_frontend(
        frontend, ResilienceOptions(admission=admission)
    )
    monitoring = enable_cluster_monitoring(
        frontend,
        sim.nodes,
        MonitoringOptions(interval=opts.monitor_interval, seed=opts.seed),
    )
    autoscaler = None
    if opts.autoscale:
        autoscaler = Autoscaler.from_monitoring(
            env,
            replica_set,
            monitoring.aggregator,
            frontend.machine.hostid,
            policy=AutoscalerPolicy(
                interval=opts.scaler_interval,
                cooldown=opts.scaler_cooldown,
                max_replicas=opts.max_replicas,
                seed=opts.seed,
            ),
        )

    # Root span for the whole storm: fault injections parent on it
    # directly, and every install in the restore herd reaches it through
    # Machine.trace_parent — one causality tree for `repro explain`.
    storm_span = tracer.span(
        "storm", f"x{opts.n_nodes}", nodes=opts.n_nodes, seed=opts.seed
    )
    plan = FaultPlan(
        "power-restore",
        (
            SitePowerFailure(at=opts.fail_at),
            PowerRestore(at=opts.restore_at),
        ),
        seed=opts.seed,
    )
    injector = FaultInjector(plan).arm(frontend, sim.nodes, parent=storm_span)

    t_restore = t_integrated + opts.restore_at
    # Let the power events fire, then race recovery against the deadline.
    env.run(until=t_restore)
    settle = env.process(_settle(env, sim.nodes), name="storm:settle")
    deadline = env.timeout(opts.deadline)
    env.run(until=AnyOf(env, [settle, deadline]))
    stable = settle.triggered and settle.ok
    t_stable = settle.value if stable else None
    if not stable and settle.is_alive:
        settle.interrupt("storm deadline")
        try:
            env.run(until=settle)
        except Interrupt:
            pass
    if autoscaler is not None:
        autoscaler.stop()
    storm_span.end(
        stable=stable, outcome="stable" if stable else "deadline"
    )

    report = _slo_report(
        opts, sim, tracer, t_restore, stable, t_stable, autoscaler
    )
    return StormResult(
        options=opts,
        sim=sim,
        tracer=tracer,
        report=report,
        injector=injector,
        resilience=resilience,
        monitoring=monitoring,
        autoscaler=autoscaler,
        replica_set=replica_set,
        scale_events=list(autoscaler.events) if autoscaler else [],
    )


def _slo_report(
    opts: StormOptions,
    sim: RocksCluster,
    tracer: Tracer,
    t_restore: float,
    stable: bool,
    t_stable: Optional[float],
    autoscaler,
) -> dict:
    """Reduce the run's telemetry to the SLO numbers, canonically."""
    from ..telemetry.summary import percentile

    env = sim.env
    # Install-HTTP latency: completed http spans from the herd (post-restore).
    durations = [
        span.duration
        for span in tracer.spans("http")
        if span.t1 is not None and span.t0 >= t_restore
    ]
    rejects = [
        e["t"] for e in tracer.events("http-reject") if e["t"] >= t_restore
    ]
    completed = len(durations)
    shed = len(rejects)
    nodes_up = sum(
        1 for m in sim.nodes if m.state is MachineState.UP
    )
    events = []
    peak_replicas = 0
    if autoscaler is not None:
        events = [
            {"t_s": e.t - t_restore, "action": e.action, "replicas": e.replicas}
            for e in autoscaler.events
        ]
        peak_replicas = max((e.replicas for e in autoscaler.events), default=0)
    report = {
        "format": SLO_FORMAT,
        "version": SLO_VERSION,
        "n_nodes": opts.n_nodes,
        "seed": opts.seed,
        "autoscale": opts.autoscale,
        "dhcp_stagger_s": opts.dhcp_stagger,
        "stable": stable,
        "time_to_stable_s": (
            None if t_stable is None else t_stable - t_restore
        ),
        "nodes_up": nodes_up,
        "http": {
            "requests": completed,
            "p50_s": percentile(durations, 0.50),
            "p95_s": percentile(durations, 0.95),
            "p99_s": percentile(durations, 0.99),
            "max_s": max(durations, default=0.0),
        },
        "shed": {
            "total": shed,
            "rate": shed / (shed + completed) if (shed + completed) else 0.0,
            "last_reject_after_restore_s": (
                max(rejects) - t_restore if rejects else 0.0
            ),
        },
        "autoscaler": {
            "actions": len(events),
            "peak_replicas": peak_replicas,
            "final_replicas": (
                autoscaler.n_replicas if autoscaler is not None else 0
            ),
            "events": events,
        },
        "end_time_s": env.now - t_restore,
    }
    return _round(report)
