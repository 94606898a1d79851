"""End-to-end chaos experiment: the Table I campaign under a fault plan.

This is the one implementation behind ``python -m repro chaos``, ``repro
monitor`` and the ``chaos`` scenario: stand up a cluster, integrate
its nodes cleanly, then arm a fault plan and run a self-healing
:class:`~repro.core.tools.campaign.ReinstallCampaign` over every node.
The result pairs the campaign's graceful-degradation report with the
injector's log, so a run answers both "what did we do to the cluster?"
and "how well did it cope?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.tools import CampaignReport, ReinstallCampaign
from ..quickbuild import build_cluster
from .injector import FaultInjector
from .plan import FaultPlan, named_plan

__all__ = ["ChaosResult", "campaign_size", "chaos_reinstall", "select_machines"]


@dataclass
class ChaosResult:
    """One chaos campaign: what was injected and how the cluster coped."""

    plan: FaultPlan
    n_nodes: int
    report: CampaignReport
    injector: FaultInjector
    #: FrontendResilience handle when the run was hardened, else None.
    resilience: Optional[object] = None
    #: MonitoringStack handle when the run was observed, else None.
    monitoring: Optional[object] = None

    @property
    def minutes(self) -> float:
        return self.report.minutes

    @property
    def completion_rate(self) -> float:
        return self.report.completion_rate

    def render(self) -> str:
        parts = [self.injector.render_log(), "", self.report.render()]
        if self.resilience is not None:
            parts += ["", self.resilience.render()]
        if self.monitoring is not None:
            parts += ["", self.monitoring.render_top()]
        return "\n".join(parts)


def select_machines(sim, targets: str) -> list:
    """Resolve a nodeset expression against a built cluster's machines.

    Accepts the assigned hostnames (``compute-0-[0-15]``), the
    positional aliases ``node<i>`` (the i-th integrated node — the same
    indexing the fault-plan ``node:<i>`` selector uses), and database
    groups (``@compute``, ``@cabinet0``) via
    :func:`~repro.core.tools.cluster_fork.frontend_groups`.
    """
    from ..core.tools import frontend_groups
    from ..exec import NodeSet

    by_name = {m.hostid: m for m in sim.nodes}
    selected = []
    expr = NodeSet(targets, resolver=frontend_groups(sim.frontend))
    for name in expr:
        machine = by_name.get(name)
        if machine is None and name.startswith("node") and name[4:].isdigit():
            index = int(name[4:])
            if index < len(sim.nodes):
                machine = sim.nodes[index]
        if machine is None:
            raise ValueError(
                f"target {name!r} does not match an integrated node "
                f"(cluster has {len(sim.nodes)})"
            )
        if machine not in selected:
            selected.append(machine)
    return selected


def campaign_size(targets: str) -> int:
    """Smallest cluster (node count) covering a pre-build nodeset.

    Only positional ``node<i>`` aliases and ``compute-<rack>-<rank>``
    names can size a cluster that does not exist yet; groups resolve
    against the database, which needs the cluster built first.
    """
    from ..exec import NodeSet

    highest = -1
    for name in NodeSet(targets):
        if name.startswith("node") and name[4:].isdigit():
            index = int(name[4:])
        elif name.startswith("compute-"):
            try:
                rack, rank = (int(p) for p in name[len("compute-"):].split("-"))
            except ValueError:
                raise ValueError(f"cannot size a cluster for {name!r}") from None
            index = rack * 32 + rank
        else:
            raise ValueError(f"cannot size a cluster for {name!r}")
        highest = max(highest, index)
    if highest < 0:
        raise ValueError(f"empty target set {targets!r}")
    return highest + 1


def chaos_reinstall(
    n_nodes: int = 32,
    plan: "FaultPlan | str" = "default",
    seed: Optional[int] = None,
    resilience: bool = False,
    monitoring=None,
    on_monitoring=None,
    targets: Optional[str] = None,
    **build_kwargs,
) -> ChaosResult:
    """Reinstall ``n_nodes`` concurrently while the plan's faults fire.

    Fault ``at`` offsets are relative to campaign start (the cluster is
    integrated cleanly first).  ``plan`` may be a :class:`FaultPlan` or
    a name from :data:`repro.faults.plan.PLANS`; ``seed`` re-seeds it.
    ``resilience=True`` hardens the frontend before the faults arm with
    :func:`~repro.resilience.harden_frontend` (journal, breakers and
    supervisor; admission control stays off), which plans that inject a
    ``FrontendCrash`` need: an unhardened frontend stays down.  Each
    node's reinstall escalates from Ethernet to the PDU as
    :class:`~repro.core.tools.campaign.ReinstallCampaign` does.
    ``monitoring`` deploys the gmond/gmetad stack: ``True`` for the
    default :class:`~repro.monitoring.MonitoringOptions`, or an options
    instance.  ``on_monitoring`` is called with the
    :class:`~repro.monitoring.MonitoringStack` before the campaign runs
    (the hook the CLI uses to start a live ``--watch`` dashboard).
    ``targets`` restricts the campaign to a nodeset expression (see
    :func:`select_machines`); faults and monitoring still cover the
    whole cluster, exactly like shooting a subset of a real machine
    room.  When ``targets`` needs more nodes than ``n_nodes``, the
    cluster grows to fit (:func:`campaign_size`).
    """
    if isinstance(plan, str):
        plan = named_plan(plan, seed)
    elif seed is not None:
        plan = plan.with_seed(seed)
    if targets is not None:
        n_nodes = max(n_nodes, campaign_size(targets))
    sim = build_cluster(n_compute=n_nodes, **build_kwargs)
    sim.integrate_all()
    hardening = None
    if resilience:
        from ..resilience import harden_frontend

        hardening = harden_frontend(sim.frontend)
    stack = None
    if monitoring:
        from ..monitoring import MonitoringOptions, enable_cluster_monitoring

        mon_options = (
            monitoring
            if isinstance(monitoring, MonitoringOptions)
            else MonitoringOptions()
        )
        stack = enable_cluster_monitoring(sim.frontend, sim.nodes, mon_options)
        if on_monitoring is not None:
            on_monitoring(stack)
    injector = FaultInjector(plan).arm(sim.frontend, sim.nodes)
    victims = sim.nodes if targets is None else select_machines(sim, targets)
    campaign = ReinstallCampaign(sim.frontend)
    report = sim.env.run(until=campaign.run(victims))
    return ChaosResult(
        plan=plan,
        n_nodes=len(victims),
        report=report,
        injector=injector,
        resilience=hardening,
        monitoring=stack,
    )
