"""The XML *graph file*: wiring node files into appliances (§6.1, Fig 3-4).

"An XML-based graph file links all the defined modules together with
directed edges...  The roots of the graph represent 'appliances', such
as compute and frontend."  Generating a kickstart for an appliance is a
traversal: Figure 4's example — a *compute* appliance reaches the
``compute``, ``mpi`` and ``c-development`` node files.

Edges may be architecture-conditional (``arch="ia64"``), which is how a
*single* graph describes every hardware variant in the Meteor cluster
(§3.1 / §6.1).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = ["Graph", "Edge", "GraphError"]


class GraphError(Exception):
    """Malformed graph XML or a bad traversal request."""


def _archs(value: Optional[str]) -> Optional[frozenset[str]]:
    if value is None or not value.strip():
        return None
    return frozenset(a.strip() for a in value.split(",") if a.strip())


@dataclass(frozen=True)
class Edge:
    """A directed relation: ``frm`` includes ``to`` (optionally per-arch)."""

    frm: str
    to: str
    archs: Optional[frozenset[str]] = None

    def applies_to(self, arch: str) -> bool:
        return self.archs is None or arch in self.archs


class Graph:
    """A mutable module graph with deterministic traversal."""

    def __init__(self, name: str = "default"):
        self.name = name
        # The list preserves declaration order (traversal is defined by
        # it); the set is a pure duplicate index so add_edge is O(1)
        # instead of scanning the list — O(n²) over a whole graph load.
        self._edges: list[Edge] = []
        self._edge_index: set[Edge] = set()

    # -- construction -----------------------------------------------------------
    def add_edge(self, frm: str, to: str, archs: Optional[Iterable[str]] = None) -> None:
        arch_set = frozenset(archs) if archs is not None else None
        edge = Edge(frm, to, arch_set)
        if edge not in self._edge_index:
            self._edge_index.add(edge)
            self._edges.append(edge)

    def remove_edge(self, frm: str, to: str) -> None:
        before = len(self._edges)
        self._edges = [e for e in self._edges if not (e.frm == frm and e.to == to)]
        if len(self._edges) == before:
            raise GraphError(f"no edge {frm} -> {to}")
        self._edge_index = set(self._edges)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self._edges)

    def successors(self, name: str, arch: str = "i386") -> list[str]:
        return [e.to for e in self._edges if e.frm == name and e.applies_to(arch)]

    def roots(self) -> list[str]:
        """Nodes with no incoming edges — the appliances."""
        targets = {e.to for e in self._edges}
        return sorted({e.frm for e in self._edges} - targets)

    # -- traversal (the kickstart generation order) -----------------------------------
    def traverse(self, root: str, arch: str = "i386") -> list[str]:
        """Depth-first pre-order from ``root``, deduplicated, edge order kept.

        This is the module list the CGI script parses into one kickstart
        file.  Cycles are tolerated (each module contributes once).
        """
        if root not in {e.frm for e in self._edges} and root not in {
            e.to for e in self._edges
        }:
            raise GraphError(f"{root!r} is not in graph {self.name!r}")
        seen: list[str] = []
        stack = [root]
        visited: set[str] = set()
        while stack:
            current = stack.pop()
            if current in visited:
                continue
            visited.add(current)
            seen.append(current)
            # push reversed so the first-declared edge is visited first
            for succ in reversed(self.successors(current, arch)):
                if succ not in visited:
                    stack.append(succ)
        return seen

    # -- XML round trip -----------------------------------------------------------------
    @classmethod
    def from_xml(cls, text: str, name: str = "default") -> "Graph":
        try:
            root = ET.fromstring(text)
        except ET.ParseError as err:
            raise GraphError(f"graph {name!r}: bad XML: {err}") from err
        if root.tag.lower() != "graph":
            raise GraphError(f"graph root element must be <graph>, got <{root.tag}>")
        graph = cls(name=name)
        for child in root:
            if child.tag.lower() != "edge":
                raise GraphError(f"unknown graph element <{child.tag}>")
            frm, to = child.get("from"), child.get("to")
            if not frm or not to:
                raise GraphError("<edge> needs 'from' and 'to' attributes")
            graph.add_edge(frm, to, _archs(child.get("arch")))
        return graph

    def to_xml(self) -> str:
        root = ET.Element("graph")
        for edge in self._edges:
            el = ET.SubElement(root, "edge")
            el.set("from", edge.frm)
            el.set("to", edge.to)
            if edge.archs is not None:
                el.set("arch", ",".join(sorted(edge.archs)))
        ET.indent(root)
        return (
            '<?xml version="1.0" standalone="no"?>\n'
            + ET.tostring(root, encoding="unicode")
            + "\n"
        )

    def to_dot(self) -> str:
        """GraphViz rendering — Figure 4's visualisation."""
        lines = [f"digraph {self.name} {{"]
        for appliance in self.roots():
            lines.append(f'  "{appliance}" [shape=box];')
        for edge in self._edges:
            attrs = ""
            if edge.archs is not None:
                attrs = f' [label="{",".join(sorted(edge.archs))}"]'
            lines.append(f'  "{edge.frm}" -> "{edge.to}"{attrs};')
        lines.append("}")
        return "\n".join(lines)
