"""Declarative, seeded fault plans.

A :class:`FaultPlan` is a schedule of fault entries — each a frozen
dataclass naming *what* breaks, *when* (seconds after the plan is
armed), and *for how long*.  Plans are data, not behavior: the
:class:`~repro.faults.injector.FaultInjector` turns them into armed
environment processes and records everything it does in an injection
log.  Because the DES is deterministic and all randomness (which node
hangs, which payload corrupts) flows from the plan's seed, the same
seed always produces the identical injection log and campaign outcome.

The fault vocabulary follows what large-cluster operations reports
(CERN, BNL) say actually dominates at 1000+ nodes: partial failure
during mass (re)installation — install-server crashes, flapping or
degraded links, nodes hanging or dying mid-install, DHCP blackouts,
and corrupted package payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "Fault",
    "ServiceOutage",
    "ServerCrash",
    "DhcpBlackout",
    "NfsOutage",
    "FrontendCrash",
    "LinkDegrade",
    "LinkFlap",
    "NodeHang",
    "NodeCrash",
    "SitePowerFailure",
    "PowerRestore",
    "PackageCorruption",
    "FaultPlan",
    "PLANS",
    "named_plan",
]

#: Host selector understood by the injector: the frontend, a campaign
#: target by index ("node:3"), or an explicit MAC/hostname.
FRONTEND = "frontend"


@dataclass(frozen=True)
class Fault:
    """Base entry: something breaks ``at`` seconds after arming."""

    at: float = 0.0

    def describe(self) -> str:
        return f"{type(self).__name__}@{self.at:g}s"


@dataclass(frozen=True)
class ServiceOutage(Fault):
    """A frontend service dies; repaired after ``duration`` (0 = never)."""

    service: str = "install"  # "install" | "dhcp" | "nfs"
    duration: float = 60.0


@dataclass(frozen=True)
class ServerCrash(ServiceOutage):
    """The HTTP install server crashes (and restarts after ``duration``)."""

    service: str = "install"


@dataclass(frozen=True)
class DhcpBlackout(ServiceOutage):
    """dhcpd stops answering DISCOVER; clients see a non-answer, not an error."""

    service: str = "dhcp"


@dataclass(frozen=True)
class NfsOutage(ServiceOutage):
    """The §4 common-mode failure: every mounted client stalls at once."""

    service: str = "nfs"


@dataclass(frozen=True)
class FrontendCrash(Fault):
    """The frontend box dies: dhcpd/httpd/nfs fault together and (by
    default) the live cluster database is wiped.

    There is deliberately no auto-repair half: bringing the services
    back is the :class:`~repro.resilience.ServiceSupervisor`'s job, and
    the database only comes back if a journal was attached — this fault
    is what the crash-recovery acceptance test injects.
    """

    lose_database: bool = True


@dataclass(frozen=True)
class LinkDegrade(Fault):
    """A NIC drops to ``factor`` of its capacity for ``duration`` seconds."""

    host: str = FRONTEND
    factor: float = 0.1
    duration: float = 120.0


@dataclass(frozen=True)
class LinkFlap(Fault):
    """A link bounces: ``flaps`` cycles of down/up, aborting flows each time."""

    host: str = FRONTEND
    flaps: int = 3
    down_seconds: float = 5.0
    up_seconds: float = 15.0


@dataclass(frozen=True)
class NodeHang(Fault):
    """``count`` nodes freeze mid-whatever (kernel panic, §4's dark node).

    ``node`` pins a specific campaign-target index; ``None`` lets the
    plan's seeded RNG choose victims.
    """

    count: int = 1
    node: Optional[int] = None


@dataclass(frozen=True)
class NodeCrash(Fault):
    """``count`` nodes lose power outright (and stay down until cycled)."""

    count: int = 1
    node: Optional[int] = None


@dataclass(frozen=True)
class SitePowerFailure(Fault):
    """Every PDU in the machine room drops at once: the whole-site power
    event the CERN and LCG-1 operations reports open with.

    All compute nodes lose power hard (forcing a reinstall on restore);
    the frontend is assumed to ride through on its UPS — it hosts the
    services recovery depends on, and the paper's frontend is exactly
    the box a site protects first.
    """


@dataclass(frozen=True)
class PowerRestore(Fault):
    """Utility power returns and every PDU re-energizes simultaneously.

    Every node that a :class:`SitePowerFailure` (or anything else) left
    dark powers on in the same instant — the thundering herd of DHCP
    discovers and kickstart/package fetches the storm driver exists to
    study.
    """


@dataclass(frozen=True)
class PackageCorruption(Fault):
    """Each fetched RPM payload is corrupted with probability ``rate``.

    Active from ``at`` for ``duration`` seconds (``None`` = until the
    simulation ends).  Corruption is detected by the installer's
    checksum verification and re-fetched.
    """

    rate: float = 0.05
    duration: Optional[float] = None


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded schedule of faults."""

    name: str
    faults: tuple[Fault, ...] = ()
    seed: int = 0

    def describe(self) -> str:
        inner = ", ".join(f.describe() for f in self.faults) or "no faults"
        return f"{self.name} (seed={self.seed}): {inner}"

    def with_seed(self, seed: int) -> "FaultPlan":
        return FaultPlan(self.name, self.faults, seed)


def _default_plan() -> FaultPlan:
    """The acceptance scenario: crash + corruption + hangs, all at once."""
    return FaultPlan(
        "default",
        (
            ServerCrash(at=120.0, duration=45.0),
            PackageCorruption(at=0.0, rate=0.05),
            NodeHang(at=300.0, count=2),
        ),
    )


#: Named plans the CLI and benchmarks accept.
PLANS: dict[str, FaultPlan] = {
    "none": FaultPlan("none", ()),
    "default": _default_plan(),
    "flaky-network": FaultPlan(
        "flaky-network",
        (
            LinkFlap(at=90.0, flaps=4, down_seconds=8.0, up_seconds=30.0),
            LinkDegrade(at=400.0, factor=0.25, duration=180.0),
        ),
    ),
    "dhcp-blackout": FaultPlan(
        "dhcp-blackout",
        (DhcpBlackout(at=30.0, duration=240.0),),
    ),
    "frontend-crash": FaultPlan(
        "frontend-crash",
        (FrontendCrash(at=240.0),),
    ),
    "frontend-storm": FaultPlan(
        "frontend-storm",
        (
            FrontendCrash(at=240.0),
            LinkFlap(at=420.0, flaps=3, down_seconds=5.0, up_seconds=20.0),
            NodeHang(at=300.0, count=1),
        ),
    ),
    "install-storm": FaultPlan(
        "install-storm",
        (
            ServerCrash(at=120.0, duration=45.0),
            ServerCrash(at=600.0, duration=30.0),
            PackageCorruption(at=0.0, rate=0.08),
            LinkFlap(at=200.0, flaps=3),
            NodeHang(at=300.0, count=2),
            NodeCrash(at=450.0, count=1),
        ),
    ),
    # The whole-site power event: lights out at t=60, utility power back
    # five minutes later, every node rebooting into a reinstall at once.
    "power-restore": FaultPlan(
        "power-restore",
        (
            SitePowerFailure(at=60.0),
            PowerRestore(at=360.0),
        ),
    ),
    # A monitoring shakedown: every alert family has a trigger — the
    # crash flips svc.install (service-down), the hangs go dark
    # (node-down), the degraded uplink stretches transfers while the
    # mass install pegs it (link-saturated), and corruption keeps the
    # retry machinery warm.
    "chaos": FaultPlan(
        "chaos",
        (
            ServerCrash(at=120.0, duration=45.0),
            PackageCorruption(at=0.0, rate=0.05),
            NodeHang(at=300.0, count=2),
            LinkDegrade(at=400.0, factor=0.25, duration=180.0),
        ),
    ),
}


def named_plan(name: str, seed: Optional[int] = None) -> FaultPlan:
    """Look up a plan by name, optionally re-seeding it."""
    try:
        plan = PLANS[name]
    except KeyError:
        raise KeyError(
            f"no fault plan named {name!r}; have {sorted(PLANS)}"
        ) from None
    return plan if seed is None else plan.with_seed(seed)
