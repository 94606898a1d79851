"""Mirroring a parent distribution over HTTP (§6.2.3, Figure 6).

"When building a new distribution, rocks-dist replicates the software
from its parent distribution using wget over HTTP."  On the simulated
network this is a sequence of HTTP GETs against the parent's install
server, so a campus child mirroring from a loaded parent competes for
bandwidth like everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ...netsim import Environment, HttpError
from ...rpm import Package, Repository
from ...services import InstallServer

__all__ = ["mirror_over_http", "MirrorReport"]


@dataclass
class MirrorReport:
    """Outcome of one wget-style replication run."""

    dist_name: str
    n_fetched: int = 0
    n_skipped: int = 0  # already present at the right version
    bytes_transferred: float = 0.0
    seconds: float = 0.0
    errors: list[str] = None

    def __post_init__(self):
        if self.errors is None:
            self.errors = []


def mirror_over_http(
    env: Environment,
    server: InstallServer,
    dist_name: str,
    client_host: str,
    into: Repository,
) -> Generator:
    """Process: replicate ``dist_name`` from ``server`` into ``into``.

    Skips packages already mirrored at the same EVR (incremental, like
    wget's timestamping).  Yields the :class:`MirrorReport`.
    """
    report = MirrorReport(dist_name=dist_name)
    started = env.now
    index = server.package_index(dist_name)
    for filename in sorted(index):
        pkg: Package = index[filename]
        existing = [
            p for p in into.versions(pkg.name) if p.evr == pkg.evr and p.arch == pkg.arch
        ] if pkg.name in into else []
        if existing:
            report.n_skipped += 1
            continue
        try:
            resp = yield from server.fetch_package(client_host, dist_name, pkg)
        except HttpError as err:
            report.errors.append(f"{filename}: {err}")
            continue
        into.add(pkg)
        report.bytes_transferred += resp.size
        report.n_fetched += 1
    report.seconds = env.now - started
    return report
