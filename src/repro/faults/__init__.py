"""Fault injection for the simulated Rocks cluster.

The paper's §4 thesis is that world-class environments fail — nodes go
dark, services crash, payloads corrupt — and that complete reinstallation
is the recovery primitive that keeps large clusters manageable.  This
package supplies the *failure* half of that argument: seeded,
declarative :class:`~repro.faults.plan.FaultPlan` schedules, an
:class:`~repro.faults.injector.FaultInjector` that arms them as
environment processes with a full injection log, and
:func:`~repro.faults.experiment.chaos_reinstall`, which re-runs the
Table I mass-reinstall experiment under fire.
"""

from .experiment import ChaosResult, campaign_size, chaos_reinstall, select_machines
from .injector import FaultInjector, InjectionRecord
from .plan import (
    PLANS,
    DhcpBlackout,
    Fault,
    FaultPlan,
    FrontendCrash,
    LinkDegrade,
    LinkFlap,
    NfsOutage,
    NodeCrash,
    NodeHang,
    PackageCorruption,
    PowerRestore,
    ServerCrash,
    ServiceOutage,
    SitePowerFailure,
    named_plan,
)

__all__ = [
    "ChaosResult",
    "campaign_size",
    "chaos_reinstall",
    "select_machines",
    "FaultInjector",
    "InjectionRecord",
    "PLANS",
    "DhcpBlackout",
    "Fault",
    "FaultPlan",
    "FrontendCrash",
    "LinkDegrade",
    "LinkFlap",
    "NfsOutage",
    "NodeCrash",
    "NodeHang",
    "PackageCorruption",
    "PowerRestore",
    "ServerCrash",
    "ServiceOutage",
    "SitePowerFailure",
    "named_plan",
]
