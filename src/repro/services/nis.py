"""Network Information Service: account synchronisation.

"User account configuration (passwords and home directory locations)
are synchronized from the frontend node to compute nodes with the
Network Information Service" (§5).  We model the NIS domain as the
master map on the frontend, read directly — a *dynamic, scalable*
service in the paper's taxonomy, so reads reflect the master
immediately (no client holds a stale copy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .base import Service

__all__ = ["NisDomain", "UserAccount"]


@dataclass(frozen=True)
class UserAccount:
    """A passwd-map entry."""

    username: str
    uid: int
    home: str
    shell: str = "/bin/bash"


class NisDomain(Service):
    """ypserv on the frontend: the master passwd map."""

    def __init__(self, domain: str):
        super().__init__(f"ypserv/{domain}")
        self.domain = domain
        self._users: dict[str, UserAccount] = {}
        self.map_version = 0

    def add_user(self, account: UserAccount) -> None:
        if account.username in self._users:
            raise ValueError(f"user {account.username!r} already exists")
        if any(u.uid == account.uid for u in self._users.values()):
            raise ValueError(f"uid {account.uid} already in use")
        self._users[account.username] = account
        self.map_version += 1

    def lookup(self, username: str) -> Optional[UserAccount]:
        self.require_running()
        return self._users.get(username)

    def __len__(self) -> int:
        return len(self._users)
