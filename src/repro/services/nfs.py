"""The Network File System: home directories, and the one unscalable service.

§5: "We have employed one unscalable service, the Network File System.
The frontend node exports all user home directories to compute nodes via
NFS."  §4 adds that when a node's Ethernet won't come up the culprit is
usually "a central (common-mode) service (often NFS)".  Failure
injection rides the shared :class:`~repro.services.base.Faultable`
surface (``fail()``/``repair()``) and drives the common-mode-failure
experiment: every mounted client stalls at once, and the fix is
repair-then-remote-power-cycle, exactly the paper's recipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .base import Service, ServiceError

__all__ = ["NfsServer", "NfsMount", "StaleFileHandle"]


class StaleFileHandle(ServiceError):
    """Raised on access through a mount whose server has failed."""


@dataclass
class _Export:
    path: str
    files: dict[str, bytes] = field(default_factory=dict)


class NfsServer(Service):
    """nfsd on the frontend, exporting home directories."""

    def __init__(self, host: str):
        super().__init__(f"nfsd/{host}")
        self.host = host
        self._exports: dict[str, _Export] = {}
        self._mounts: list["NfsMount"] = []

    # -- exports ------------------------------------------------------------
    def export(self, path: str) -> None:
        if path in self._exports:
            raise ValueError(f"{path} already exported")
        self._exports[path] = _Export(path)

    def exports(self) -> list[str]:
        return sorted(self._exports)

    # -- server-side IO -------------------------------------------------------
    def _read(self, export: str, name: str) -> bytes:
        if self.state is not self.state.RUNNING:
            raise StaleFileHandle(f"NFS server {self.host} is {self.state.value}")
        exp = self._lookup(export)
        try:
            return exp.files[name]
        except KeyError:
            raise FileNotFoundError(f"{export}/{name}") from None

    def _write(self, export: str, name: str, data: bytes) -> None:
        if self.state is not self.state.RUNNING:
            raise StaleFileHandle(f"NFS server {self.host} is {self.state.value}")
        self._lookup(export).files[name] = data

    def _lookup(self, export: str) -> _Export:
        try:
            return self._exports[export]
        except KeyError:
            raise ServiceError(f"{export} is not exported by {self.host}") from None

    # -- clients -------------------------------------------------------------
    def mount(self, client_host: str, export: str, mountpoint: str) -> "NfsMount":
        """A compute node mounts an export."""
        self.require_running()
        self._lookup(export)
        m = NfsMount(self, client_host, export, mountpoint)
        self._mounts.append(m)
        return m

    def mounted_clients(self) -> list[str]:
        return sorted({m.client_host for m in self._mounts})

    def affected_by_failure(self) -> list[str]:
        """Clients that would hang right now — the common-mode blast radius."""
        if self.running:
            return []
        return self.mounted_clients()


class NfsMount:
    """A client-side mount: the ubiquitous open/read/write/close interface."""

    def __init__(self, server: NfsServer, client_host: str, export: str, mountpoint: str):
        self.server = server
        self.client_host = client_host
        self.export = export
        self.mountpoint = mountpoint

    def write(self, name: str, data: bytes) -> None:
        self.server._write(self.export, name, data)

    def read(self, name: str) -> bytes:
        return self.server._read(self.export, name)
