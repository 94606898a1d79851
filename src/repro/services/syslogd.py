"""The frontend's syslog daemon — insert-ethers's event source.

"Insert-ethers monitors syslog messages for DHCP requests from new
hosts" (§6.4).  We model syslog as a subscribable message bus: the DHCP
server logs DHCPDISCOVER lines here; insert-ethers subscribes and reacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..netsim import Environment
from .base import Service

__all__ = ["Syslog", "SyslogMessage"]


@dataclass(frozen=True)
class SyslogMessage:
    """One log line: simulated time, facility, originating host, text."""

    time: float
    facility: str
    host: str
    text: str

    def __str__(self) -> str:
        return f"{self.time:10.1f} {self.host} {self.facility}: {self.text}"


Subscriber = Callable[[SyslogMessage], None]


class Syslog(Service):
    """An append-only message log with live subscribers."""

    def __init__(self, env: Environment, name: str = "syslogd"):
        super().__init__(name)
        self.env = env
        self.messages: list[SyslogMessage] = []
        self._subscribers: list[tuple[Optional[str], Subscriber]] = []
        self.start()

    def log(self, facility: str, host: str, text: str) -> SyslogMessage:
        """Append a message and fan it out to matching subscribers."""
        msg = SyslogMessage(self.env.now, facility, host, text)
        if not self.running:
            return msg  # syslog down: messages are simply lost
        self.messages.append(msg)
        for wanted_facility, callback in list(self._subscribers):
            if wanted_facility is None or wanted_facility == facility:
                callback(msg)
        return msg

    def subscribe(
        self, callback: Subscriber, facility: Optional[str] = None
    ) -> Callable[[], None]:
        """Register a live listener; returns an unsubscribe function."""
        entry = (facility, callback)
        self._subscribers.append(entry)

        def unsubscribe() -> None:
            if entry in self._subscribers:
                self._subscribers.remove(entry)

        return unsubscribe
