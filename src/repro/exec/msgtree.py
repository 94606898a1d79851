"""MsgTree: gather per-node output and merge identical messages.

The payoff of a parallel command fabric is the *report*: 4096 nodes that
all answered ``2.4.14-rocks`` must render as one line —

    node[0-38,40-4095] (4095): 2.4.14-rocks

— not 4095 lines (clush's ``-b``/clubak behaviour).  A MsgTree keys
nodes by their complete message; rendering folds each key's nodes into a
:class:`~repro.exec.nodeset.NodeSet` and sorts groups by their first
member so the report is byte-identical run to run.
"""

from __future__ import annotations

from typing import Iterator

from .nodeset import NodeSet

__all__ = ["MsgTree"]


class MsgTree:
    """Message -> nodes, with folded, deterministic rendering."""

    __slots__ = ("_lines", "_sealed")

    def __init__(self) -> None:
        #: node -> accumulated lines (insertion order per node)
        self._lines: dict[str, list[str]] = {}
        #: message -> NodeSet, built lazily at read time
        self._sealed: dict[str, NodeSet] | None = None

    def add(self, node: str, line: str) -> None:
        """Append one output line for ``node``."""
        self._lines.setdefault(node, []).append(line)
        self._sealed = None

    def __len__(self) -> int:
        return len(self._lines)

    def _gathered(self) -> dict[str, NodeSet]:
        if self._sealed is None:
            gathered: dict[str, NodeSet] = {}
            for node in sorted(self._lines):
                msg = "\n".join(self._lines[node])
                gathered.setdefault(msg, NodeSet()).add(node)
            self._sealed = gathered
        return self._sealed

    def walk(self) -> Iterator[tuple[str, NodeSet]]:
        """(message, nodes) groups, ordered by each group's first node."""
        gathered = self._gathered()
        def first_node(item: tuple[str, NodeSet]) -> tuple[str, str]:
            msg, nodes = item
            return (next(iter(nodes)), msg)
        for msg, nodes in sorted(gathered.items(), key=first_node):
            yield msg, nodes

    def render(self) -> str:
        """The clubak-style merged report."""
        blocks = []
        for msg, nodes in self.walk():
            header = f"{nodes.fold()} ({len(nodes)})"
            lines = msg.split("\n") if msg else [""]
            block = [f"{header}: {lines[0]}"]
            block.extend(f"{' ' * (len(header) + 2)}{line}" for line in lines[1:])
            blocks.append("\n".join(block))
        return "\n".join(blocks)
