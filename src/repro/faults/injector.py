"""Arms a :class:`~repro.faults.plan.FaultPlan` against a live cluster.

The injector is the bridge between declarative fault entries and the
simulation: :meth:`FaultInjector.arm` resolves each entry's target
(a frontend service, a NIC, a victim node), spawns one environment
process per entry, and appends an :class:`InjectionRecord` to
:attr:`FaultInjector.log` for every action actually taken — including
the repair/restore half of each fault, and every individual package
payload the corruption hook mangles.

Determinism: all randomness flows from ``plan.seed`` through per-fault
sub-RNGs (victim node picks are drawn when the entry fires, corruption
coin-flips when each payload is fetched).  The DES itself is
deterministic, so the same plan + seed + cluster always yields a
byte-identical injection log.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from ..cluster import Machine, PowerState
from ..core.frontend import RocksFrontend
from .plan import (
    FRONTEND,
    Fault,
    FaultPlan,
    FrontendCrash,
    LinkDegrade,
    LinkFlap,
    NodeCrash,
    NodeHang,
    PackageCorruption,
    PowerRestore,
    ServiceOutage,
    SitePowerFailure,
)

__all__ = ["InjectionRecord", "FaultInjector"]


@dataclass(frozen=True)
class InjectionRecord:
    """One thing the injector did to the cluster, timestamped."""

    t: float
    kind: str
    target: str
    detail: str = ""

    def __str__(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{self.t:9.2f}s] {self.kind:<18} {self.target}{extra}"


class FaultInjector:
    """Turns a fault plan into armed environment processes."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.log: list[InjectionRecord] = []
        #: DB snapshots captured immediately before each FrontendCrash —
        #: the byte-identity reference for crash-recovery verification.
        self.snapshots: list[str] = []
        self._armed = False
        self._parent = None  # tracer span all injections parent on
        self._site_down_at: Optional[float] = None  # start of a site outage

    # -- the public surface ------------------------------------------------
    def arm(
        self,
        frontend: RocksFrontend,
        targets: Sequence[Machine] = (),
        parent=None,
    ) -> "FaultInjector":
        """Schedule every fault in the plan against ``frontend``.

        ``targets`` are the campaign's victim pool for node-level faults
        (``NodeHang``/``NodeCrash``) and the ``node:<i>`` host selector.
        ``parent`` (a tracer span, e.g. a storm driver's root) becomes
        the parent of every fault record the injector emits, so traces
        show *what scenario* caused each perturbation.
        Arming is idempotent-hostile by design: arm once per run.
        """
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        self._parent = parent
        env = frontend.env
        targets = list(targets)
        corruptions: list[tuple[PackageCorruption, random.Random]] = []
        for i, fault in enumerate(self.plan.faults):
            rng = random.Random(self.plan.seed * 1_000_003 + i)
            if isinstance(fault, PackageCorruption):
                corruptions.append((fault, rng))
                continue
            env.process(
                self._deliver(env, frontend, targets, fault, rng),
                name=f"fault:{fault.describe()}",
            )
        if corruptions:
            self._install_corruption_hook(frontend, corruptions)
        return self

    def signature(self) -> tuple[tuple[float, str, str, str], ...]:
        """The log as comparable data: same seed ⇒ identical signature."""
        return tuple((r.t, r.kind, r.target, r.detail) for r in self.log)

    def render_log(self) -> str:
        header = f"injection log: {self.plan.describe()}"
        return "\n".join([header, *map(str, self.log)] if self.log else
                         [header, "  (no injections fired)"])

    # -- delivery ----------------------------------------------------------
    def _record(self, env, kind: str, target: str, detail: str = "",
                parent=None) -> None:
        self.log.append(InjectionRecord(env.now, kind, target, detail))
        if env.tracer.enabled:
            env.tracer.event("fault", kind, parent=parent or self._parent,
                             target=target, detail=detail)

    def _fault_span(self, env, fault: Fault):
        """Open a ``fault`` span covering a windowed fault's lifetime.

        Only faults with a duration (outages, degrades, flaps) get
        spans: a window is an interval the critical-path analyzer can
        attribute time to.  Instantaneous deliveries stay events.
        """
        if not env.tracer.enabled:
            return None
        return env.tracer.span(
            "fault", fault.describe(), parent=self._parent
        )

    def _deliver(
        self,
        env,
        frontend: RocksFrontend,
        targets: list[Machine],
        fault: Fault,
        rng: random.Random,
    ) -> Generator:
        yield env.timeout(fault.at)
        if isinstance(fault, FrontendCrash):
            self._deliver_frontend_crash(env, frontend, fault)
        elif isinstance(fault, ServiceOutage):
            yield from self._deliver_outage(env, frontend, fault)
        elif isinstance(fault, LinkDegrade):
            yield from self._deliver_degrade(env, frontend, targets, fault)
        elif isinstance(fault, LinkFlap):
            yield from self._deliver_flap(env, frontend, targets, fault)
        elif isinstance(fault, (NodeHang, NodeCrash)):
            self._deliver_node_fault(env, targets, fault, rng)
        elif isinstance(fault, SitePowerFailure):
            self._deliver_site_power(env, frontend, restore=False)
        elif isinstance(fault, PowerRestore):
            self._deliver_site_power(env, frontend, restore=True)
        else:  # pragma: no cover - new fault types must be wired here
            raise TypeError(f"no delivery for fault type {type(fault).__name__}")

    def _deliver_outage(self, env, frontend, fault: ServiceOutage) -> Generator:
        services = {
            "install": frontend.install_server,
            "dhcp": frontend.dhcp,
            "nfs": frontend.nfs,
        }
        try:
            service = services[fault.service]
        except KeyError:
            raise ValueError(
                f"unknown service {fault.service!r}; have {sorted(services)}"
            ) from None
        span = self._fault_span(env, fault) if fault.duration else None
        # Synchronous: ambient context parents the service's own
        # fail/repair events on the fault window.
        with env.tracer.context(span):
            service.fail()
        self._record(env, "service-fail", fault.service,
                     f"repair in {fault.duration:g}s" if fault.duration else "no repair",
                     parent=span)
        if fault.duration:
            yield env.timeout(fault.duration)
            with env.tracer.context(span):
                service.repair()
            self._record(env, "service-repair", fault.service, parent=span)
            if span is not None:
                span.end(outcome="repaired")

    def _deliver_frontend_crash(self, env, frontend, fault: FrontendCrash) -> None:
        # Snapshot first: this is the state recovery must reproduce.
        self.snapshots.append(frontend.db.snapshot())
        # Context parents the frontend-crash event and the service-stop
        # cascade on whatever scenario armed this injector.
        with env.tracer.context(self._parent):
            frontend.crash(lose_database=fault.lose_database)
        self._record(
            env,
            "frontend-crash",
            frontend.config.name,
            "database lost" if fault.lose_database else "services only",
        )

    def _resolve_machine(
        self, frontend: RocksFrontend, targets: list[Machine], selector: str
    ) -> Machine:
        if selector == FRONTEND:
            return frontend.machine
        if selector.startswith("node:"):
            return targets[int(selector.split(":", 1)[1])]
        return frontend.cluster.find(selector)

    def _deliver_degrade(self, env, frontend, targets, fault: LinkDegrade) -> Generator:
        machine = self._resolve_machine(frontend, targets, fault.host)
        network = frontend.cluster.network
        original = network.host(machine.mac).speed
        span = self._fault_span(env, fault)
        network.set_host_speed(machine.mac, original * fault.factor)
        self._record(env, "link-degrade", machine.hostid,
                     f"x{fault.factor:g} for {fault.duration:g}s", parent=span)
        yield env.timeout(fault.duration)
        network.set_host_speed(machine.mac, original)
        self._record(env, "link-restore", machine.hostid, parent=span)
        if span is not None:
            span.end(host=machine.hostid, factor=fault.factor)

    def _deliver_flap(self, env, frontend, targets, fault: LinkFlap) -> Generator:
        machine = self._resolve_machine(frontend, targets, fault.host)
        network = frontend.cluster.network
        span = self._fault_span(env, fault)
        for cycle in range(1, fault.flaps + 1):
            network.set_host_up(machine.mac, False)
            self._record(env, "link-down", machine.hostid,
                         f"flap {cycle}/{fault.flaps}", parent=span)
            yield env.timeout(fault.down_seconds)
            # Restore truthfully: sync against the OS state, so a link is
            # not forced up on a host that hung or powered off meanwhile.
            frontend.cluster.sync_link_state(machine)
            self._record(env, "link-up", machine.hostid,
                         f"flap {cycle}/{fault.flaps}", parent=span)
            if cycle < fault.flaps:
                yield env.timeout(fault.up_seconds)
        if span is not None:
            span.end(host=machine.hostid, flaps=fault.flaps)

    def _deliver_node_fault(self, env, targets, fault, rng: random.Random) -> None:
        if fault.node is not None:
            victims = [targets[fault.node]]
        else:
            pool = list(targets)
            k = min(fault.count, len(pool))
            victims = rng.sample(pool, k) if k else []
        for machine in victims:
            if env.tracer.enabled:
                # The recovery reinstall this fault forces should trace
                # back to the scenario that injected it.
                machine.trace_parent = self._parent
            if isinstance(fault, NodeHang):
                machine.hang(cause="injected fault")
                self._record(env, "node-hang", machine.hostid)
            else:
                machine.power_off(hard=True)
                self._record(env, "node-crash", machine.hostid, "power lost")

    def _deliver_site_power(self, env, frontend, restore: bool) -> None:
        """Drop (or re-energize) every PDU outlet in the machine room.

        The frontend machine is skipped: it is assumed to be on UPS
        power, as it hosts the very services (dhcpd/httpd/database)
        that recovery depends on.  Machines are walked in cabinet/outlet
        order, so the herd is deterministic.
        """
        affected = 0
        for cabinet in frontend.cluster.cabinets:
            for outlet, machine in cabinet.pdu.outlets():
                if machine is frontend.machine:
                    continue
                powered = machine.power is PowerState.ON
                if restore and not powered:
                    if env.tracer.enabled:
                        # Every install in the restore herd traces back
                        # to the scenario that re-energized the site.
                        machine.trace_parent = self._parent
                    cabinet.pdu.power_on(outlet)
                    affected += 1
                elif not restore and powered:
                    cabinet.pdu.power_off(outlet)
                    affected += 1
        kind = "power-restore" if restore else "site-power-failure"
        detail = (f"{affected} nodes re-energized" if restore
                  else f"{affected} nodes lost power")
        self._record(env, kind, "site", detail)
        # The dark window between failure and restore is wall-to-wall
        # time nothing can make progress in; give it a retrospective
        # span so `repro explain` names it instead of folding it into
        # the scenario root's self-time.
        if restore:
            if env.tracer.enabled and self._site_down_at is not None:
                env.tracer.record_span(
                    "fault", "site-outage", self._site_down_at,
                    parent=self._parent, nodes=affected,
                )
            self._site_down_at = None
        else:
            self._site_down_at = env.now

    def _install_corruption_hook(
        self,
        frontend: RocksFrontend,
        corruptions: list[tuple[PackageCorruption, random.Random]],
    ) -> None:
        env = frontend.env

        def corrupt(client: str, pkg) -> bool:
            for fault, rng in corruptions:
                end = None if fault.duration is None else fault.at + fault.duration
                if env.now < fault.at or (end is not None and env.now >= end):
                    continue
                if rng.random() < fault.rate:
                    self._record(env, "corrupt-package", client, pkg.nevra)
                    return True
            return False

        frontend.install_server.corruption_hook = corrupt
