"""The install web server.

"For installation, compute nodes use Kickstart's HTTP method to pull
RPMs across the network" (§5).  This wraps the netsim HTTP layer with
distribution publishing: a repository's packages appear under
``/install/<dist>/RedHat/RPMS/<filename>`` and the kickstart CGI is
mounted at ``/install/kickstart.cgi`` — the URL layout of a real Rocks
frontend.  Replication for load balancing (§6.3) reuses
:class:`repro.netsim.LoadBalancer`.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Union

from ..netsim import (
    DEFAULT_HTTP_EFFICIENCY,
    Environment,
    HttpServer,
    LoadBalancer,
    Network,
)
from ..rpm import Package, Repository
from .base import Service

__all__ = [
    "InstallServer",
    "InstallReplicaSet",
    "rpms_prefix",
    "KICKSTART_CGI_PATH",
]

KICKSTART_CGI_PATH = "/install/kickstart.cgi"


def rpms_prefix(dist_name: str) -> str:
    """URL prefix for a distribution's binary packages."""
    return f"/install/{dist_name}/RedHat/RPMS"


def _fetch_rpm(
    get: Callable[..., Generator], primary: InstallServer, client: str,
    dist_name: str, pkg: Package, max_rate: Optional[float], parent,
) -> Generator:
    """GET one RPM through ``get`` and stamp the checksum the client got.

    ``primary``'s corruption hook is read at fetch time: the fault
    injector installs it after a replica set may have been built.
    """
    resp = yield from get(
        client, f"{rpms_prefix(dist_name)}/{pkg.filename}",
        max_rate=max_rate, parent=parent,
    )
    resp.checksum = pkg.checksum
    hook = primary.corruption_hook
    if hook is not None and hook(client, pkg):
        resp.checksum = f"corrupt:{pkg.checksum}"
    return resp


class InstallServer(Service):
    """httpd on the frontend (or a replica), serving RPMs and kickstarts."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        host: str,
        efficiency: float = DEFAULT_HTTP_EFFICIENCY,
    ):
        super().__init__(f"httpd/{host}")
        self.env = env
        self.host = host
        self.http = HttpServer(network, host, efficiency=efficiency)
        self._published: dict[str, dict[str, Package]] = {}
        #: fault-injection hook: (client, package) -> True to corrupt the
        #: payload the client receives (repro.faults installs this)
        self.corruption_hook: Optional[Callable[[str, Package], bool]] = None
        self.start()

    # -- lifecycle glue -------------------------------------------------------
    def _sync_runtime(self) -> None:
        self.http.running = self.running
        if not self.running:
            # A dead daemon resets its open connections: in-flight
            # downloads abort (and the installer's retry path kicks in).
            self.http.abort_transfers()

    # -- publishing --------------------------------------------------------------
    def publish_packages(
        self, dist_name: str, packages: Union[Repository, list[Package]]
    ) -> int:
        """Expose a package set as distribution ``dist_name``; returns count."""
        prefix = rpms_prefix(dist_name)
        index = self._published.setdefault(dist_name, {})
        n = 0
        for pkg in packages:
            self.http.publish(f"{prefix}/{pkg.filename}", pkg.size)
            index[pkg.filename] = pkg
            n += 1
        return n

    def unpublish_distribution(self, dist_name: str) -> None:
        prefix = rpms_prefix(dist_name)
        for filename in self._published.pop(dist_name, {}):
            self.http.unpublish(f"{prefix}/{filename}")

    def distributions(self) -> list[str]:
        return sorted(self._published)

    def package_index(self, dist_name: str) -> dict[str, Package]:
        """Filename -> package map for a published distribution."""
        return dict(self._published.get(dist_name, {}))

    def register_kickstart_cgi(self, handler) -> None:
        """Mount the kickstart generator at the canonical CGI path."""
        self.http.register_cgi(KICKSTART_CGI_PATH, handler)

    # -- client operations ----------------------------------------------------------
    def fetch_package(
        self,
        client: str,
        dist_name: str,
        pkg: Package,
        max_rate: Optional[float] = None,
        parent=None,
    ) -> Generator:
        """GET one RPM (a generator returning the HttpResponse).

        The response carries the payload checksum the client actually
        received, so the installer can detect corrupted downloads.
        ``parent`` threads trace context down to the HTTP span.
        """
        return _fetch_rpm(self.http.get, self, client, dist_name, pkg,
                          max_rate, parent)

    def fetch_kickstart(self, client: str, parent=None) -> Generator:
        return self.http.get(client, KICKSTART_CGI_PATH, parent=parent)


class InstallReplicaSet:
    """The primary install server plus elastic replicas behind one name.

    §6.3 of the paper notes replicating the install web server is
    trivial because serving RPMs is strictly read-only.  This class is
    the operational form of that observation: it satisfies the
    installer's ``InstallSource`` protocol (``fetch_kickstart`` /
    ``fetch_package``) by routing every request through a
    :class:`~repro.netsim.LoadBalancer`, and lets an autoscaler
    :meth:`add_replica` and :meth:`drain_replica` backends while
    requests are in flight.

    Replicas are full :class:`InstallServer` instances on their own
    simulated hosts (cloned NIC speed, published distributions, CGI
    mounts, admission setting and request log), so each one brings real
    serving capacity.  Draining is graceful: a drained replica leaves the
    rotation immediately but keeps serving its in-flight transfers
    until :meth:`reap_drained` observes its service link idle.

    A ``should_avoid`` property (and deliberately *no* ``host``
    attribute) makes :class:`~repro.resilience.GuardedSource` treat the
    set as a balanced source and install its per-backend circuit
    breakers on the underlying balancer.
    """

    def __init__(self, primary: InstallServer):
        self.env = primary.env
        self.primary = primary
        self.network = primary.http.network
        self.balancer = LoadBalancer([primary.http])
        #: replicas currently in the rotation, oldest first
        self.replicas: list[InstallServer] = []
        self._draining: list[InstallServer] = []
        self._spawned = 0

    # -- balancer passthrough (GuardedSource wires breakers in here) -------
    @property
    def should_avoid(self):
        return self.balancer.should_avoid

    @should_avoid.setter
    def should_avoid(self, hook) -> None:
        self.balancer.should_avoid = hook

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    # -- elasticity --------------------------------------------------------
    def add_replica(self) -> InstallServer:
        """Spin up one replica and put it in the rotation.

        Replica host names are monotonic (``replica-1``, ``replica-2``,
        …) and never reused, so scale-up after scale-down cannot collide
        with a host still draining.
        """
        self._spawned += 1
        host = f"replica-{self._spawned}"
        speed = self.network.host(self.primary.host).speed
        self.network.attach(host, speed)
        replica = InstallServer(
            self.env,
            self.network,
            host,
            efficiency=self.primary.http.efficiency,
        )
        for dist in self.primary.distributions():
            replica.publish_packages(
                dist, list(self.primary.package_index(dist).values())
            )
        for path, handler in self.primary.http.cgi_mounts().items():
            replica.http.register_cgi(path, handler)
        replica.http.configure_admission(self.primary.http.admission_seed)
        replica.http.log = self.primary.http.log
        self.replicas.append(replica)
        self.balancer.add_backend(replica.http)
        return replica

    def drain_replica(self) -> Optional[InstallServer]:
        """Take the newest replica out of the rotation (LIFO).

        The primary is never drained.  Returns the draining replica, or
        ``None`` if there are no replicas left.
        """
        if not self.replicas:
            return None
        replica = self.replicas.pop()
        self.balancer.remove_backend(replica.http)
        self._draining.append(replica)
        return replica

    def reap_drained(self) -> list[InstallServer]:
        """Stop drained replicas whose last in-flight transfer finished."""
        reaped = []
        for replica in list(self._draining):
            if self.network.flows.flows_through(replica.http.service_link):
                continue
            replica.stop()
            self._draining.remove(replica)
            reaped.append(replica)
        return reaped

    # -- InstallSource protocol --------------------------------------------
    def fetch_kickstart(self, client: str, parent=None) -> Generator:
        return self.balancer.get(client, KICKSTART_CGI_PATH, parent=parent)

    def fetch_package(
        self,
        client: str,
        dist_name: str,
        pkg: Package,
        max_rate: Optional[float] = None,
        parent=None,
    ) -> Generator:
        return _fetch_rpm(self.balancer.get, self.primary, client, dist_name,
                          pkg, max_rate, parent)
