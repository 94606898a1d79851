"""Declarative alerting over the aggregator's live view.

An :class:`AlertRule` reports the set of *currently true* conditions
each evaluation tick; the :class:`AlertEngine` edge-detects — a
condition that appears fires a typed :class:`Alert`, one that vanishes
records a clear — so a node that stays down for ten minutes pages once,
not forty times.  Fired and cleared alerts go to the telemetry tracer
as ``alert`` / ``alert-clear`` events (no-ops under the null tracer)
and accumulate on the engine for reports and determinism tests.

The built-in rules cover the four failures §4 of the paper says an
administrator must notice: a node gone dark (node-down), an
installation wedged in one phase (install-stuck), the install server
shedding load (http-shed), and a saturated NIC (link-saturated), plus
frontend service health (service-down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Alert",
    "AlertRule",
    "AlertEngine",
    "NodeDownRule",
    "ServiceDownRule",
    "InstallStuckRule",
    "ShedRateRule",
    "LinkSaturationRule",
    "default_rules",
]


@dataclass(frozen=True)
class Alert:
    """One fired (or cleared) alert: the typed payload rules emit."""

    t: float
    kind: str        # rule identity: "node-down", "install-stuck", ...
    severity: str    # "critical" | "warning"
    host: str        # subject, e.g. "compute-0-3" or "frontend-0/dhcp"
    message: str
    value: float = 0.0

    def render(self) -> str:
        tag = "CRIT" if self.severity == "critical" else "WARN"
        return f"[{self.t:8.1f}s] {tag} {self.kind:<15} {self.host}: {self.message}"


class AlertRule:
    """Base rule: subclasses report currently-true conditions.

    ``check`` returns ``{subject: (message, value)}``; the engine owns
    the fire/clear edge detection.  Rules may keep internal state
    between ticks (counters, last-seen values) — it must derive only
    from the aggregator view, never from wall time or unseeded RNG.

    Every tick reads every host's last packet, so the built-in rules
    read a host's dicts by membership and subscript rather than with
    ``dict.get``, and compare rather than call ``max``.
    """

    kind = "abstract"
    severity = "warning"

    def check(self, agg, now: float) -> dict[str, tuple[str, float]]:
        raise NotImplementedError


class NodeDownRule(AlertRule):
    """An expected host has gone silent past the staleness threshold."""

    kind = "node-down"
    severity = "critical"

    def __init__(self, stale_after: Optional[float] = None):
        self.stale_after = stale_after

    def check(self, agg, now: float) -> dict[str, tuple[str, float]]:
        limit = self.stale_after if self.stale_after is not None else agg.stale_after
        conditions: dict[str, tuple[str, float]] = {}
        last = agg.snapshot()
        for host in agg.expected_hosts():
            packet = last[host] if host in last else None
            age = math.inf if packet is None else now - packet.t
            if age > limit:
                if packet is None:
                    conditions[host] = ("never heard a heartbeat", -1.0)
                else:
                    conditions[host] = (f"no heartbeat for {age:.0f}s", age)
        return conditions


class ServiceDownRule(AlertRule):
    """A ``svc.*`` gauge (frontend service health) reads 0."""

    kind = "service-down"
    severity = "critical"

    def check(self, agg, now: float) -> dict[str, tuple[str, float]]:
        conditions: dict[str, tuple[str, float]] = {}
        for host, packet in agg.snapshot().items():
            down = []
            for name, value in packet.metrics.items():
                # Every host's readings pass here every tick, and only
                # the frontend has ``svc.*`` gauges: test the value
                # first, then the prefix without a method call.
                if value == 0.0 and name[:4] == "svc.":
                    down.append(name[4:])
            if down:
                for service in sorted(down):
                    conditions[f"{host}/{service}"] = (
                        f"service {service} is not running", 0.0
                    )
        return conditions


class InstallStuckRule(AlertRule):
    """A node has sat in one install phase with no progress too long.

    Progress is the (phase, packages installed) pair: a healthy install
    changes it every few seconds, so a frozen pair past the threshold
    means the node is wedged (dead install server, lost route) even
    though its heartbeats still flow.
    """

    kind = "install-stuck"
    severity = "warning"

    def __init__(self, threshold: float = 360.0):
        self.threshold = threshold
        #: host -> (progress token, first time it was seen)
        self._since: dict[str, tuple[tuple, float]] = {}

    def check(self, agg, now: float) -> dict[str, tuple[str, float]]:
        conditions: dict[str, tuple[str, float]] = {}
        installing: dict[str, None] = {}
        since = self._since
        for host, packet in agg.snapshot().items():
            labels = packet.labels
            if "state" not in labels or labels["state"] != "installing":
                continue
            installing[host] = None
            metrics = packet.metrics
            token = (
                labels["phase"] if "phase" in labels else "",
                metrics["install.done_pkgs"]
                if "install.done_pkgs" in metrics else 0.0,
            )
            seen = since[host] if host in since else None
            if seen is None or seen[0] != token:
                since[host] = (token, packet.t)
                continue
            stuck_for = now - seen[1]
            if stuck_for > self.threshold:
                phase = labels.get("phase") or "?"
                conditions[host] = (
                    f"no progress in phase {phase} for {stuck_for:.0f}s",
                    stuck_for,
                )
        for host in list(self._since):
            if host not in installing:
                del self._since[host]
        return conditions


class ShedRateRule(AlertRule):
    """HTTP admission control is shedding 503s faster than the floor."""

    kind = "http-shed"
    severity = "warning"

    def __init__(self, min_sheds: float = 5.0):
        #: sheds per evaluation window that count as overload
        self.min_sheds = min_sheds
        self._last: dict[str, float] = {}

    def check(self, agg, now: float) -> dict[str, tuple[str, float]]:
        conditions: dict[str, tuple[str, float]] = {}
        for host, packet in agg.snapshot().items():
            metrics = packet.metrics
            if "http.rejected" not in metrics:  # the frontend's gmond only
                continue
            total = metrics["http.rejected"]
            delta = total - self._last.get(host, 0.0)
            self._last[host] = total
            if delta >= self.min_sheds:
                conditions[host] = (
                    f"shed {delta:.0f} requests this window "
                    f"({total:.0f} total)",
                    delta,
                )
        return conditions


class LinkSaturationRule(AlertRule):
    """A NIC has run saturated for several consecutive reports."""

    kind = "link-saturated"
    severity = "warning"

    def __init__(self, threshold: float = 0.98, sustain: int = 3):
        self.threshold = threshold
        self.sustain = sustain
        self._streak: dict[str, int] = {}

    def check(self, agg, now: float) -> dict[str, tuple[str, float]]:
        conditions: dict[str, tuple[str, float]] = {}
        streaks = self._streak
        for host, packet in agg.snapshot().items():
            metrics = packet.metrics
            tx = metrics["net.tx_util"] if "net.tx_util" in metrics else 0.0
            rx = metrics["net.rx_util"] if "net.rx_util" in metrics else 0.0
            util = rx if rx > tx else tx  # max(tx, rx)
            if util >= self.threshold:
                streak = streaks[host] + 1 if host in streaks else 1
            else:
                streak = 0
            streaks[host] = streak
            if streak >= self.sustain:
                conditions[host] = (
                    f"NIC at {100 * util:.0f}% for {streak} samples", util
                )
        return conditions


def default_rules(
    interval: float = 15.0,
    stuck_threshold: float = 360.0,
) -> tuple[AlertRule, ...]:
    """The standard rule set, thresholds scaled to the agent interval."""
    return (
        NodeDownRule(),
        ServiceDownRule(),
        InstallStuckRule(threshold=stuck_threshold),
        ShedRateRule(),
        LinkSaturationRule(),
    )


class AlertEngine:
    """Edge-detects rule conditions into fired/cleared alerts."""

    def __init__(self, rules: tuple[AlertRule, ...] = ()):
        self.rules = list(rules)
        #: every alert ever fired, in order
        self.alerts: list[Alert] = []
        #: every clear, in order (same Alert shape, message "cleared")
        self.cleared: list[Alert] = []
        self._active: dict[tuple[str, str], Alert] = {}
        self.evaluations = 0

    def evaluate(self, agg, now: float) -> list[Alert]:
        """Run every rule against the aggregator; returns newly fired."""
        self.evaluations += 1
        tracer = agg.env.tracer
        fired: list[Alert] = []
        for rule in self.rules:
            conditions = rule.check(agg, now)
            for subject, (message, value) in conditions.items():
                key = (rule.kind, subject)
                if key in self._active:
                    continue
                alert = Alert(
                    t=now,
                    kind=rule.kind,
                    severity=rule.severity,
                    host=subject,
                    message=message,
                    value=value,
                )
                self._active[key] = alert
                self.alerts.append(alert)
                fired.append(alert)
                if tracer.enabled:
                    tracer.event(
                        "alert",
                        f"{rule.kind}:{subject}",
                        severity=rule.severity,
                        host=subject,
                        message=message,
                        value=value,
                    )
                    tracer.metrics.inc(f"alerts.fired/{rule.kind}")
            for key in [k for k in self._active if k[0] == rule.kind]:
                if key[1] not in conditions:
                    raised = self._active.pop(key)
                    clear = Alert(
                        t=now,
                        kind=raised.kind,
                        severity=raised.severity,
                        host=raised.host,
                        message=f"cleared after {now - raised.t:.0f}s",
                        value=0.0,
                    )
                    self.cleared.append(clear)
                    if tracer.enabled:
                        tracer.event(
                            "alert-clear",
                            f"{raised.kind}:{raised.host}",
                            host=raised.host,
                            raised_at=raised.t,
                        )
        return fired

    def active(self) -> list[Alert]:
        """Currently-raised alerts, in fire order."""
        return list(self._active.values())

    def kinds_fired(self) -> list[str]:
        """Distinct alert kinds ever fired, sorted."""
        return sorted({a.kind for a in self.alerts})

    def signature(self) -> str:
        """Deterministic one-line-per-alert render (for byte comparison)."""
        lines = [a.render() for a in self.alerts]
        lines += [f"[{c.t:8.1f}s] CLEAR {c.kind:<15} {c.host}: {c.message}"
                  for c in self.cleared]
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        """JSON-ready alert log (fired then cleared, each in order)."""
        def rec(a: Alert, status: str) -> dict:
            return {
                "status": status,
                "t": a.t,
                "kind": a.kind,
                "severity": a.severity,
                "host": a.host,
                "message": a.message,
                "value": a.value,
            }
        return ([rec(a, "fired") for a in self.alerts]
                + [rec(c, "cleared") for c in self.cleared])
