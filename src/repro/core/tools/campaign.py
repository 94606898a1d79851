"""Self-healing reinstall campaigns: shoot-node with a typed escalation.

The paper's recovery primitive is complete reinstallation, escalating
from an Ethernet request to a hard PDU power cycle when a node is
unresponsive (§4, §6.3).  At production scale the dominant cost is
*partial failure during mass reinstallation* — some nodes hang, some
never answer, the install server crashes mid-campaign — so the
supervisor here drives shoot-node over N nodes with bounded per-node
retries and reports graceful degradation (installed / retried /
escalated / abandoned) instead of raising on the first casualty.

Escalation ladder per node: Ethernet reinstall → retry → PDU hard
power cycle → mark dead.  Every node is accounted for in the
:class:`CampaignReport`, whatever happened to it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

from ...cluster import Machine
from ...netsim import AllOf, Process
from ..frontend import RocksFrontend
from .shoot_node import ShootReport, shoot_node

__all__ = [
    "NodeOutcome",
    "NodeCampaignReport",
    "CampaignReport",
    "ReinstallCampaign",
]


# How hard the campaign fights for each node.
#: total reinstall attempts per node before marking it dead
MAX_ATTEMPTS = 3
#: seconds to wait for a node to come back UP per attempt; a §5
#: reinstall is 5-10 minutes, so 45 min flags only real casualties
ATTEMPT_DEADLINE = 2700.0
#: attempts made over Ethernet before escalating to the PDU
ETHERNET_ATTEMPTS = 1
#: pause between attempts on the same node
RETRY_PAUSE = 10.0


class NodeOutcome(enum.Enum):
    """Final per-node verdict, in escalation order."""

    INSTALLED = "installed"  # first attempt, no drama
    RETRIED = "retried"  # needed extra attempts, no PDU
    ESCALATED = "escalated"  # needed a hard PDU power cycle
    ABANDONED = "abandoned"  # all attempts spent; marked dead


@dataclass
class NodeCampaignReport:
    """Everything the campaign did to (and learned about) one node."""

    host: str
    outcome: NodeOutcome
    attempts: int
    methods: list[str]
    seconds: float
    error: Optional[str] = None
    shoots: list[ShootReport] = field(default_factory=list)

    @property
    def installed(self) -> bool:
        return self.outcome is not NodeOutcome.ABANDONED


@dataclass
class CampaignReport:
    """The graceful-degradation account for one campaign."""

    started_at: float
    finished_at: float
    nodes: list[NodeCampaignReport]

    @property
    def seconds(self) -> float:
        return self.finished_at - self.started_at

    @property
    def minutes(self) -> float:
        return self.seconds / 60.0

    def count(self, outcome: NodeOutcome) -> int:
        return sum(1 for n in self.nodes if n.outcome is outcome)

    @property
    def n_installed(self) -> int:
        return sum(1 for n in self.nodes if n.installed)

    @property
    def completion_rate(self) -> float:
        return self.n_installed / len(self.nodes) if self.nodes else 1.0

    def summary(self) -> dict[str, int]:
        return {o.value: self.count(o) for o in NodeOutcome}

    def render(self) -> str:
        """The report an administrator reads after the campaign."""
        lines = [
            f"reinstall campaign: {len(self.nodes)} nodes in "
            f"{self.minutes:.1f} min, "
            f"{100 * self.completion_rate:.0f}% installed"
        ]
        for o in NodeOutcome:
            lines.append(f"  {o.value:<10} {self.count(o):>3}")
        for n in sorted(self.nodes, key=lambda n: n.host):
            detail = "" if n.error is None else f"  [{n.error}]"
            lines.append(
                f"  {n.host:<14} {n.outcome.value:<10} "
                f"attempts={n.attempts} via {'+'.join(n.methods) or '-'} "
                f"{n.seconds / 60:.1f} min{detail}"
            )
        return "\n".join(lines)


class ReinstallCampaign:
    """Drives shoot-node over many nodes, surviving partial failure."""

    def __init__(self, frontend: RocksFrontend):
        self.frontend = frontend

    def run(self, machines: Sequence[Machine]) -> Process:
        """Supervise a whole campaign; the process yields a CampaignReport."""
        env = self.frontend.env
        targets = list(machines)

        def supervise() -> Generator:
            started = env.now
            span = (
                env.tracer.span("campaign", f"x{len(targets)}", nodes=len(targets))
                if env.tracer.enabled
                else None
            )
            procs = [
                env.process(self._drive(m, span), name=f"campaign:{m.hostid}")
                for m in targets
            ]
            node_reports = yield AllOf(env, procs)
            report = CampaignReport(
                started_at=started,
                finished_at=env.now,
                nodes=list(node_reports),
            )
            if span is not None:
                span.end(**{o.value: report.count(o) for o in NodeOutcome})
            return report

        return env.process(supervise(), name=f"campaign:x{len(targets)}")

    def _drive(self, machine: Machine, campaign_span=None) -> Generator:
        """One node's escalation ladder: ethernet → retry → PDU → dead."""
        env = self.frontend.env
        tracer = env.tracer
        t0 = env.now
        span = (
            tracer.span("campaign-node", machine.hostid, parent=campaign_span)
            if tracer.enabled
            else None
        )
        methods: list[str] = []
        shoots: list[ShootReport] = []
        error: Optional[str] = None
        # Campaign state lives in app_globals so it survives a frontend
        # crash via the database journal, like any other §6.4 state.
        self.frontend.db.set_global("campaign", machine.hostid, "installing")
        for attempt in range(1, MAX_ATTEMPTS + 1):
            force_pdu = attempt > ETHERNET_ATTEMPTS
            if tracer.enabled and force_pdu:
                tracer.event(
                    "campaign-escalation", machine.hostid, parent=span,
                    attempt=attempt, method="pdu", after=str(error or ""),
                )
            report = yield shoot_node(
                self.frontend,
                machine,
                deadline=ATTEMPT_DEADLINE,
                force_pdu=force_pdu,
                parent=span,
            )
            methods.append(report.method)
            shoots.append(report)
            if tracer.enabled:
                tracer.event(
                    "campaign-attempt", machine.hostid, parent=span,
                    attempt=attempt, method=report.method, ok=report.ok,
                )
            if report.ok:
                if attempt == 1 and report.method == "ethernet":
                    outcome = NodeOutcome.INSTALLED
                elif "pdu" in methods:
                    outcome = NodeOutcome.ESCALATED
                else:
                    outcome = NodeOutcome.RETRIED
                self.frontend.db.set_global(
                    "campaign", machine.hostid, outcome.value
                )
                if span is not None:
                    span.end(outcome=outcome.value, attempts=attempt)
                return NodeCampaignReport(
                    host=machine.hostid,
                    outcome=outcome,
                    attempts=attempt,
                    methods=methods,
                    seconds=env.now - t0,
                    shoots=shoots,
                )
            error = report.error
            if attempt < MAX_ATTEMPTS:
                yield env.timeout(RETRY_PAUSE)
        # Out of attempts: power the node down so it stops thrashing the
        # install server, and report it dead for the crash cart.
        machine.power_off()
        self.frontend.db.set_global(
            "campaign", machine.hostid, NodeOutcome.ABANDONED.value
        )
        if span is not None:
            span.end(
                outcome=NodeOutcome.ABANDONED.value,
                attempts=MAX_ATTEMPTS,
                error=str(error or ""),
            )
        return NodeCampaignReport(
            host=machine.hostid,
            outcome=NodeOutcome.ABANDONED,
            attempts=MAX_ATTEMPTS,
            methods=methods,
            seconds=env.now - t0,
            error=error,
            shoots=shoots,
        )
