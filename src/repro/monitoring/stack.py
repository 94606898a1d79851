"""One-call wiring: agents + aggregator + store + alerts on a cluster.

:func:`enable_cluster_monitoring` is the operator-facing switch — given
a built frontend and its machines it stands up the whole Ganglia-style
stack: one :class:`~.agent.MetricAgent` per machine (the frontend's
agent additionally samples service health, HTTP admission gauges, and
PBS queue depths), a :class:`~.aggregator.MetricAggregator` listening
on the frontend NIC, the :class:`~.rrd.RoundRobinStore`, an
:class:`~.alerts.AlertEngine` with the default rules.  The aggregator's
``down_hosts``/``up_hosts`` are the cluster's one liveness view.

Everything is opt-in and purely observational: with no stack built, the
monitoring subsystem contributes zero simulation events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..cluster import Machine
from ..scheduler.pbs import JobState
from .agent import GMOND_MULTICAST, MetricAgent
from .aggregator import MetricAggregator
from .alerts import AlertEngine, AlertRule, default_rules
from .dashboard import render_cluster_top, to_ganglia_xml
from .rrd import DEFAULT_RESOLUTIONS, Resolution, RoundRobinStore

__all__ = ["MonitoringOptions", "MonitoringStack", "enable_cluster_monitoring",
           "frontend_sampler"]


@dataclass
class MonitoringOptions:
    """Knobs for :func:`enable_cluster_monitoring`."""

    interval: float = 15.0
    seed: int = 0
    multicast_address: str = GMOND_MULTICAST
    resolutions: tuple[Resolution, ...] = DEFAULT_RESOLUTIONS
    #: staleness threshold; None -> 3 x interval
    stale_after: Optional[float] = None
    #: alert rules; None -> :func:`~.alerts.default_rules`
    rules: Optional[tuple[AlertRule, ...]] = None


def frontend_sampler(frontend) -> Callable:
    """Extra metrics only the frontend's gmond can see.

    Service health becomes ``svc.<name>`` booleans, the install
    server's admission counters surface as ``http.*`` (the same numbers
    the telemetry registry gauges — both read
    :meth:`~repro.netsim.http.HttpServer.admission_stats`), and PBS
    queue depths as ``jobs.*``.
    """

    def sample(machine: Machine) -> tuple[dict, dict]:
        metrics: dict[str, float] = {}
        labels: dict[str, str] = {}
        for name, service in (
            ("dhcp", frontend.dhcp),
            ("install", frontend.install_server),
            ("nfs", frontend.nfs),
        ):
            metrics[f"svc.{name}"] = 1.0 if service.running else 0.0
        stats = frontend.install_server.http.admission_stats()
        metrics["http.in_flight"] = float(stats["in_flight"])
        metrics["http.queue_depth"] = float(stats["queue_depth"])
        metrics["http.rejected"] = float(stats["rejected"])
        metrics["http.queue_timeouts"] = float(stats["queue_timeouts"])
        metrics["http.requests"] = float(stats["requests_served"])
        metrics["http.bytes"] = float(stats["bytes_served"])
        metrics["jobs.queued"] = float(len(frontend.pbs.qstat(JobState.QUEUED)))
        metrics["jobs.running"] = float(len(frontend.pbs.qstat(JobState.RUNNING)))
        return metrics, labels

    return sample


class MonitoringStack:
    """Handles to every monitoring component wired on one cluster."""

    def __init__(
        self,
        env,
        group,
        agents: list[MetricAgent],
        aggregator: MetricAggregator,
        store: RoundRobinStore,
        engine: AlertEngine,
        options: MonitoringOptions,
    ):
        self.env = env
        self.group = group
        self.agents = agents
        self.aggregator = aggregator
        self.store = store
        self.engine = engine
        self.options = options
        self._watch_proc = None

    @property
    def alerts(self):
        return self.engine.alerts

    def render_top(self, max_alerts: Optional[int] = 10) -> str:
        return render_cluster_top(
            self.aggregator, self.engine, max_alerts=max_alerts
        )

    def render_xml(self) -> str:
        return to_ganglia_xml(self.aggregator)

    def start_watch(
        self, period: float, sink: Callable[[str], None] = print
    ) -> None:
        """Emit a cluster-top snapshot every ``period`` simulated seconds."""
        if period <= 0:
            raise ValueError("watch period must be positive")

        def loop():
            while True:
                yield self.env.slotted_timeout(period)
                sink(self.render_top())
                sink("")

        self._watch_proc = self.env.process(loop(), name="monitor:watch")

    # -- deterministic export ------------------------------------------------
    def export(self) -> dict:
        """Everything a run observed: sealed series plus the alert log."""
        self.store.close_all()
        return {
            "format": "repro-monitor",
            "version": 1,
            "end_time": self.env.now,
            "packets": {
                "sent": sum(a.packets_sent for a in self.agents),
                "received": self.aggregator.packets_received,
            },
            "series": self.store.export()["series"],
            "alerts": self.engine.to_records(),
        }

    def export_json(self) -> str:
        """Canonical JSON — byte-identical for same-seed runs."""
        return json.dumps(self.export(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def write(self, path) -> int:
        """Write the JSON export; returns the number of bytes written."""
        text = self.export_json()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return len(text.encode("utf-8"))


def enable_cluster_monitoring(
    frontend,
    machines: Iterable[Machine],
    options: Optional[MonitoringOptions] = None,
) -> MonitoringStack:
    """Wire the full monitoring stack onto a built cluster.

    Call after the nodes are integrated (agents publish under their
    assigned hostnames).  The frontend machine always gets an agent —
    with the frontend-only sampler — in addition to one per compute
    machine; all of them are expected by the aggregator, so a machine
    that never comes up is immediately a ``node-down`` candidate.
    """
    opts = options or MonitoringOptions()
    env = frontend.env
    network = frontend.cluster.network
    group = network.multicast(opts.multicast_address)
    store = RoundRobinStore(opts.resolutions)
    rules = opts.rules if opts.rules is not None else default_rules(
        interval=opts.interval
    )
    engine = AlertEngine(rules)
    aggregator = MetricAggregator(
        env,
        group,
        frontend.machine.mac,
        store=store,
        interval=opts.interval,
        stale_after=opts.stale_after,
        engine=engine,
    )
    agents = []
    all_machines = [frontend.machine] + [
        m for m in machines if m is not frontend.machine
    ]
    for machine in all_machines:
        extra = frontend_sampler(frontend) if machine is frontend.machine else None
        agents.append(
            MetricAgent(
                machine,
                group,
                interval=opts.interval,
                seed=opts.seed,
                extra_sampler=extra,
            )
        )
        aggregator.expect(machine.hostid)
    return MonitoringStack(
        env=env,
        group=group,
        agents=agents,
        aggregator=aggregator,
        store=store,
        engine=engine,
        options=opts,
    )
