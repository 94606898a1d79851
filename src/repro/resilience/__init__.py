"""Frontend resilience layer: supervision, admission control, recovery.

The missing half of the PR 1 robustness story: that PR made *node*
installs self-healing; this package makes the *frontend* itself
survivable.  Three cooperating mechanisms:

* :class:`ServiceSupervisor` — probes dhcpd/httpd/nfs and restarts dead
  ones with exponential backoff, a bounded budget, and a typed
  degraded-mode escalation;
* a client-side :class:`CircuitBreaker` so installers back off a
  saturated or dead install server, which HTTP **admission control**
  (:meth:`~repro.netsim.HttpServer.configure_admission`) may shed from;
* a **write-ahead journal** (:class:`~repro.core.database.
  DatabaseJournal`) whose replay restores the cluster database
  byte-identically after a frontend crash.

``harden_frontend(frontend)`` wires the supervisor, the breakers and
the journal onto a stock :class:`~repro.core.frontend.RocksFrontend`;
admission control is the caller's switch (the install storm turns it
on).  Everything is opt-in and zero-overhead when unused.
"""

from __future__ import annotations

from typing import Any

from ..core.database import DatabaseJournal
from .autoscaler import Autoscaler, ScaleEvent
from .breaker import BreakerState, CircuitBreaker, GuardedSource
from .supervisor import (
    RestartRecord,
    ServiceOutcome,
    ServiceSupervisor,
    SupervisorReport,
    supervise_frontend,
)

__all__ = [
    "Autoscaler",
    "BreakerState",
    "CircuitBreaker",
    "DatabaseJournal",
    "FrontendResilience",
    "GuardedSource",
    "RestartRecord",
    "ScaleEvent",
    "ServiceOutcome",
    "ServiceSupervisor",
    "SupervisorReport",
    "harden_frontend",
    "supervise_frontend",
]

#: consecutive failures that open an install server's breaker
BREAKER_THRESHOLD = 4
#: seconds an open breaker waits before its half-open trial
BREAKER_RESET = 20.0


class FrontendResilience:
    """Handle on the hardening applied to one frontend."""

    def __init__(
        self,
        frontend: Any,
        supervisor: ServiceSupervisor,
        journal: DatabaseJournal,
        guarded_source: GuardedSource,
    ):
        self.frontend = frontend
        self.supervisor = supervisor
        self.journal = journal
        self.guarded_source = guarded_source

    def supervisor_report(self) -> SupervisorReport:
        return self.supervisor.report()

    def verify_recovery(self) -> bool:
        """Did every crash recovery complete (DB restored, not degraded)?"""
        if self.frontend.db_lost:
            return False
        return not self.supervisor_report().degraded

    def render(self) -> str:
        lines = [
            f"journal: {len(self.journal)} records, "
            f"{self.journal.replays} replay(s)",
            self.supervisor.report().render(),
        ]
        for host, br in sorted(self.guarded_source.breakers().items()):
            lines.append(
                f"breaker {host}: {br.state.value}, "
                f"{br.fast_fails} fast-fails"
            )
        return "\n".join(lines)


def harden_frontend(frontend) -> FrontendResilience:
    """Apply the resilience layer to a :class:`RocksFrontend`: the
    database journal, per-server circuit breakers on the installer's
    source and a supervisor over dhcpd, httpd and nfs."""
    journal = frontend.enable_journal()
    guarded = GuardedSource(
        frontend.env,
        frontend.installer.source,
        failure_threshold=BREAKER_THRESHOLD,
        reset_timeout=BREAKER_RESET,
    )
    frontend.installer.source = guarded
    supervisor = supervise_frontend(frontend)
    return FrontendResilience(frontend, supervisor, journal, guarded)
