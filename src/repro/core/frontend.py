"""Rocks frontend bring-up: one object owning every cluster service.

§7: "Rocks is installed with a floppy and a CD and the frontend
Kickstart file is built from a simple web form...  After the frontend
is installed, the same CD is used to bring up the individual compute
nodes."  §4.1/§5: the frontend runs DHCP, HTTP (kickstart CGI + RPMs),
NIS, NFS, MySQL, PBS and Maui, and holds the rocks-dist tree.

:class:`RocksFrontend` is that machine plus its services, wired to the
simulated cluster hardware.  It is the object the tools (insert-ethers,
shoot-node, cluster-fork) and all benchmarks operate through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cluster import ClusterHardware, Machine, MachineState
from ..installer import (
    DEFAULT_CALIBRATION,
    InstallCalibration,
    KickstartInstaller,
)
from ..netsim import Environment
from ..rpm import (
    Repository,
    community_packages,
    npaci_packages,
    stock_redhat,
)
from ..scheduler import MauiScheduler, Mpirun, PbsServer, Rexec
from ..services import (
    DhcpServer,
    InstallServer,
    NfsServer,
    NisDomain,
    Syslog,
    UserAccount,
)
from .database import (
    ClusterDatabase,
    DatabaseJournal,
    generate_configs,
)
from .distribution import Distribution, RocksDist
from .kickstart import (
    KickstartCgi,
    KickstartGenerator,
    default_graph,
    default_node_files,
)

__all__ = ["RocksFrontend", "FrontendConfig"]

#: Aggregate HTTP efficiency for the install server.  Per-stream protocol
#: overhead is modelled by the installer's single_stream_rate cap
#: (7.5 MB/s, the §6.3 micro-benchmark); with many concurrent streams
#: pipelining fills the wire, so the aggregate service cap is the NIC.
INSTALL_HTTP_EFFICIENCY = 1.0


@dataclass
class FrontendConfig:
    """The §7 'simple web form' that builds the frontend kickstart."""

    name: str = "frontend-0"
    ip: str = "10.1.1.1"
    dist_name: str = "rocks-dist"
    dist_version: str = "2.2.1"
    arch: str = "i386"
    nis_domain: str = "rocks"
    rootpw: str = "--iscrypted unset"
    machine_model: str = "pIII-733-dual"
    calibration: InstallCalibration = field(default_factory=lambda: DEFAULT_CALIBRATION)


class RocksFrontend:
    """The frontend machine and every service it runs."""

    def __init__(
        self,
        env: Environment,
        cluster: ClusterHardware,
        config: Optional[FrontendConfig] = None,
        stock: Optional[Repository] = None,
        updates: Optional[Repository] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.config = config or FrontendConfig()
        cfg = self.config

        # -- the machine itself -------------------------------------------------
        self.machine: Machine = cluster.add_machine(
            cfg.machine_model, name=cfg.name
        )

        # -- the database (created when the frontend installs, §6.4) --------------
        self.db = ClusterDatabase()
        self.db.add_node(
            cfg.name,
            membership="Frontend",
            mac=self.machine.mac,
            ip=cfg.ip,
            cpus=self.machine.spec.cpu.count,
            arch=cfg.arch,
            os_dist=cfg.dist_name,
            comment="Gateway machine",
        )
        self.db.set_global("Kickstart", "PublicHostname", cfg.name)

        # -- the distribution (rocks-dist mirror + dist at install time) -----------
        self.rocks_dist = RocksDist.standard(
            stock if stock is not None else stock_redhat(arch=cfg.arch),
            updates=updates,
            contrib=community_packages(cfg.arch),
            local=npaci_packages(cfg.dist_version),
            name=cfg.dist_name,
            arch=cfg.arch,
        )
        self.distributions: dict[str, Distribution] = {}
        dist = self.rocks_dist.dist()
        self.distributions[dist.name] = dist

        # -- services ----------------------------------------------------------------
        self.syslog = Syslog(env)
        self.dhcp = DhcpServer(
            env, self.syslog, server_host=self.machine.mac, next_server=cfg.name
        )
        self.install_server = InstallServer(
            env,
            cluster.network,
            self.machine.mac,
            efficiency=INSTALL_HTTP_EFFICIENCY,
        )
        self.nis = NisDomain(cfg.nis_domain)
        self.nfs = NfsServer(cfg.name)
        self.nfs.export("/export/home")
        self.pbs = PbsServer(env, resolve=cluster.find)
        self.maui = MauiScheduler(env, self.pbs)
        self.rexec = Rexec(env, cluster.find)
        self.mpirun = Mpirun(
            self.rexec, lambda: [r.name for r in self.db.compute_nodes()]
        )

        # -- kickstart generation ----------------------------------------------------
        self.generator = KickstartGenerator(
            default_graph(),
            default_node_files(),
            self._resolve_dist,
            install_url_base=f"http://{cfg.name}/install",
            # Each distribution's own build directory drives its
            # kickstarts (§6.2.3): developer dists bring their own XML.
            xml_resolver=self._resolve_xml,
        )
        self.cgi = KickstartCgi(self.db, self.generator)
        self.install_server.register_kickstart_cgi(self.cgi)
        self.installer = KickstartInstaller(
            self.dhcp,
            self.install_server,
            calibration=cfg.calibration,
        )

        self.hosts_file = ""
        self.config_regenerations = 0
        #: Resilience state: a DatabaseJournal once enable_journal() ran,
        #: and a flag marking the DB as crashed-and-unrecovered.
        self.journal: Optional[DatabaseJournal] = None
        self.db_lost = False
        self.recovered_snapshot: Optional[str] = None
        self._publish(dist)
        self.regenerate_configs()

    # -- distribution management -------------------------------------------------------
    def _resolve_dist(self, name: str) -> Repository:
        try:
            return self.distributions[name].repository
        except KeyError:
            raise KeyError(
                f"no distribution named {name!r} on {self.config.name}; "
                f"have {sorted(self.distributions)}"
            ) from None

    def _resolve_xml(self, name: str):
        dist = self.distributions[name]  # KeyError -> generator default
        return dist.graph, dist.node_files

    def _publish(self, dist: Distribution) -> None:
        self.install_server.publish_packages(dist.name, dist.repository)

    def add_distribution(self, dist: Distribution) -> None:
        """Register an additional (e.g. developer) distribution (§6.2.3)."""
        self.distributions[dist.name] = dist
        self._publish(dist)

    def rebuild_distribution(self) -> Distribution:
        """Re-run rocks-dist (e.g. after new updates were mirrored)."""
        dist = self.rocks_dist.dist(
            graph=self.generator.graph, node_files=self.generator.node_files
        )
        self.install_server.unpublish_distribution(dist.name)
        self.distributions[dist.name] = dist
        self._publish(dist)
        return dist

    def add_update_source(self, updates: Repository) -> None:
        self.rocks_dist.add_source(updates)

    # -- frontend installation ------------------------------------------------------------
    def install_from_cd(self) -> None:
        """Lay the frontend's own OS down from the CD and boot it.

        The frontend cannot network-install from itself; the CD medium
        carries the packages, so this is a local, synchronous install.
        """
        profile = self.generator.profile(
            "frontend", self.config.arch, self.config.dist_name
        )
        self.machine.rpmdb.wipe()
        for pkg in profile.packages:
            self.machine.rpmdb.install(pkg, nodeps=True)
        kernel = self.machine.rpmdb.query("kernel")
        if kernel is not None:
            self.machine.kernel_version = f"{kernel.version}-{kernel.release}"
        from ..installer import apply_plan

        apply_plan(self.machine, profile.partitions)
        self.machine.ip = self.config.ip
        self.machine.power_on()
        self.env.run(until=self.machine.wait_for_state(MachineState.UP))
        # PBS and Maui "are automatically started and a default queue is
        # defined" (§4.1).
        self.start_services()

    def start_services(self) -> None:
        for svc in (self.dhcp, self.install_server, self.nis, self.nfs):
            svc.start()
        self.maui.start()

    # -- crash / recovery --------------------------------------------------
    def enable_journal(self, path: Optional[str] = None) -> DatabaseJournal:
        """Attach a write-ahead journal (with a checkpoint of current state)."""
        if self.journal is None:
            self.journal = DatabaseJournal(path)
            self.db.attach_journal(self.journal)
        return self.journal

    def crash(self, lose_database: bool = True) -> None:
        """The frontend box dies: services fault and the live DB is wiped.

        The journal (stable storage) survives; :meth:`recover_database`
        replays it.  Service restarts are the supervisor's job.
        """
        for svc in (self.dhcp, self.install_server, self.nfs):
            if not svc.faulted:
                svc.fail()
        if lose_database:
            self.db.lose_state()
            self.db_lost = True
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.event(
                "frontend-crash",
                self.config.name,
                database_lost=lose_database,
            )

    def recover_database(self) -> int:
        """Replay the journal into the wiped DB; returns records applied.

        Stores the post-replay canonical dump in ``recovered_snapshot``
        (captured *before* regenerate_configs touches anything) so tests
        can assert byte-identity against the pre-crash state.
        """
        if not self.db_lost:
            return 0
        if self.journal is None:
            raise RuntimeError(
                "database lost and no journal attached; state is unrecoverable"
            )
        tracer = self.env.tracer
        span = (
            tracer.span("journal-replay", self.config.name)
            if tracer.enabled
            else None
        )
        applied = self.journal.replay_into(self.db)
        self.recovered_snapshot = self.db.snapshot()
        self.db_lost = False
        if span is not None:
            span.end(outcome="ok", records=applied)
        self.regenerate_configs()
        return applied

    # -- node adoption ----------------------------------------------------------------------
    def adopt(self, machine: Machine) -> None:
        """Point a piece of hardware at this frontend for installation."""
        self.installer.attach(machine)

    def regenerate_configs(self) -> None:
        """Rebuild every database-derived config and restart services (§6.4)."""
        configs = generate_configs(self.db)
        self.dhcp.load_bindings(configs.dhcp_bindings, configs.dhcpd_conf)
        self.dhcp.restart()
        self.hosts_file = configs.hosts
        registered = set(self.pbs.nodes())
        for node in configs.compute_nodes:
            if node.name not in registered:
                self.pbs.register_node(node.name)
        self.config_regenerations += 1

    # -- users -----------------------------------------------------------------------------------
    def add_user(self, username: str, uid: int) -> UserAccount:
        """Create an account: NIS entry + NFS home directory (§5)."""
        account = UserAccount(username, uid, f"/export/home/{username}")
        self.nis.add_user(account)
        return account

    # -- views ------------------------------------------------------------------------------------
    def compute_machines(self) -> list[Machine]:
        out = []
        for row in self.db.compute_nodes():
            if row.mac is not None:
                try:
                    out.append(self.cluster.by_mac(row.mac))
                except KeyError:
                    pass
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RocksFrontend({self.config.name!r}, "
            f"{len(self.db.nodes())} nodes, "
            f"dists={sorted(self.distributions)})"
        )
