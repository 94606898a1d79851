"""The kickstart generator: graph traversal + SQL -> kickstart (§6.1).

"In Rocks, we actively manage kickstart files by building them on-the-fly
with a CGI script.  This script merges two major functions...: it
constructs a general configuration file from a set of XML-based
configuration files and applies node-specific parameters by querying a
local SQL database."

:class:`KickstartGenerator` is the reusable half (XML traversal and
rendering); :mod:`repro.core.kickstart.cgi` adds the per-request SQL
lookups.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...installer import InstallProfile, PartitionPlan, PartitionRequest, PostScript
from ...rpm import DependencyError, Repository, resolve
from ..database import ClusterDatabase, NodeRow
from .graph import Graph
from .kickstartfile import KickstartFile
from .nodefile import NodeFile

__all__ = ["KickstartGenerator", "GenerationError"]


class GenerationError(Exception):
    """The graph references a missing module or packages do not resolve."""


#: maps a distribution name to the Repository that backs it
DistResolver = Callable[[str], Repository]

#: appliance-specific partition layouts; compute is the paper's default
_PARTITION_PLANS: dict[str, PartitionPlan] = {
    "frontend": PartitionPlan(
        (
            PartitionRequest("/", 8192),
            PartitionRequest("swap", 2048),
            PartitionRequest("/export", 1, grow=True),
        )
    ),
}


class KickstartGenerator:
    """Compiles (graph, node files, DB row) into kickstart + profile."""

    def __init__(
        self,
        graph: Graph,
        node_files: dict[str, NodeFile],
        dist_resolver: DistResolver,
        install_url_base: str = "http://frontend-0/install",
        xml_resolver: Optional[Callable[[str], tuple[Graph, dict[str, NodeFile]]]] = None,
    ):
        self.graph = graph
        self.node_files = dict(node_files)
        self.dist_resolver = dist_resolver
        self.install_url_base = install_url_base
        #: per-distribution XML build directories (§6.2.3): when set, a
        #: distribution's own graph/node files drive its kickstarts,
        #: falling back to the generator's default set.
        self.xml_resolver = xml_resolver
        self.generated = 0
        # Resolved-profile cache: generation is deterministic in
        # (appliance, arch, dist, repo identity), so concurrent node
        # requests reuse one dependency resolution.  invalidate() on any
        # XML customisation; a rebuilt distribution changes repo identity.
        self._cache: dict[tuple, InstallProfile] = {}

    def invalidate(self) -> None:
        """Drop cached profiles after node-file/graph customisation."""
        self._cache.clear()

    # -- customisation (what site admins do, §6.1 footnote) ---------------------
    def add_node_file(self, node: NodeFile) -> None:
        self.node_files[node.name] = node
        self.invalidate()

    # -- generation -----------------------------------------------------------------
    def _xml_for(self, dist_name: str) -> tuple[Graph, dict[str, NodeFile]]:
        """The XML infrastructure that drives ``dist_name``'s kickstarts."""
        if self.xml_resolver is not None:
            try:
                return self.xml_resolver(dist_name)
            except KeyError:
                pass
        return self.graph, self.node_files

    def traverse(
        self,
        appliance_root: str,
        arch: str,
        dist_name: Optional[str] = None,
    ) -> list[NodeFile]:
        """Resolve the graph traversal to actual node files."""
        graph, node_files = (
            self._xml_for(dist_name)
            if dist_name is not None
            else (self.graph, self.node_files)
        )
        order = graph.traverse(appliance_root, arch)
        missing = [name for name in order if name not in node_files]
        if missing:
            raise GenerationError(
                f"graph references undefined node files: {', '.join(missing)}"
            )
        return [node_files[name] for name in order]

    def kickstart(
        self,
        appliance_root: str,
        arch: str,
        dist_name: str,
        node_name: str = "",
        rootpw: str = "--iscrypted unset",
    ) -> KickstartFile:
        """Build the Red Hat-compliant kickstart file."""
        ks = KickstartFile(
            url=f"{self.install_url_base}/{dist_name}",
            rootpw=rootpw,
            partitions=_PARTITION_PLANS.get(appliance_root, PartitionPlan.default()),
        )
        for node_file in self.traverse(appliance_root, arch, dist_name):
            for pkg in node_file.package_names(arch):
                ks.add_package(pkg)
            for frag in node_file.post_for(arch):
                ks.add_post(node_file.name, frag.script)
            for key, value in node_file.main.items():
                ks.extra_commands.append(f"{key} {value}")
        return ks

    def profile(
        self,
        appliance_root: str,
        arch: str,
        dist_name: str,
        node_name: str = "",
    ) -> InstallProfile:
        """Build the resolved install profile (what anaconda executes)."""
        repo = self.dist_resolver(dist_name)
        graph, _files = self._xml_for(dist_name)
        key = (appliance_root, arch, dist_name, id(repo), id(graph), len(graph.edges))
        cached = self._cache.get(key)
        if cached is not None:
            self.generated += 1
            return cached
        ks = self.kickstart(appliance_root, arch, dist_name, node_name)
        try:
            transaction = resolve(repo, ks.packages, arch=arch)
        except DependencyError as err:
            raise GenerationError(
                f"packages for {appliance_root}/{arch} do not resolve "
                f"against {dist_name}: {err}"
            ) from err
        post_scripts = []
        for node_file in self.traverse(appliance_root, arch, dist_name):
            for frag in node_file.post_for(arch):
                post_scripts.append(
                    PostScript(name=node_file.name, seconds=frag.seconds)
                )
        self.generated += 1
        profile = InstallProfile(
            dist_name=dist_name,
            packages=list(transaction),
            partitions=ks.partitions,
            post_scripts=post_scripts,
            kickstart_text=ks.render(),
            appliance=appliance_root,
        )
        self._cache[key] = profile
        return profile

    def profile_for_row(self, row: NodeRow, db: ClusterDatabase) -> InstallProfile:
        """Per-node generation: appliance/arch/dist come from the database."""
        appliance, root_node = db.appliance_for_membership(row.membership)
        return self.profile(
            root_node, row.arch, row.os_dist, node_name=row.name
        )
