"""repro.exec: the fault-tolerant parallel execution fabric.

The addressing layer (:class:`RangeSet`, :class:`NodeSet`), the
clush-style engine (:class:`ExecTask`) running callables across the
simulated cluster over the rexec transport, gathered-output merging
(:class:`MsgTree`), and a cheap seeded lab (:class:`ExecLab`) for
campaign-scale runs::

    lab = ExecLab(LabOptions(nodes=4096, dead_fraction=0.05, seed=42))
    report = lab.run("@all", exec_options=ExecOptions(fanout=64, seed=42))
    print(report.render())

Every node ends in exactly one typed state — ``OK`` / ``TIMEOUT`` /
``NODE_DEAD`` / ``RETRIES_EXHAUSTED`` — and the report is byte-identical
for the same seed across ``PYTHONHASHSEED`` values.
"""

from .lab import ExecLab, LabOptions
from .msgtree import MsgTree
from .nodeset import GroupResolver, NodeSet, NodeSetParseError
from .rangeset import RangeSet, RangeSetParseError
from .task import ExecOptions, ExecReport, ExecState, ExecTask, NodeResult

__all__ = [
    "RangeSet",
    "RangeSetParseError",
    "NodeSet",
    "NodeSetParseError",
    "GroupResolver",
    "MsgTree",
    "ExecState",
    "ExecOptions",
    "NodeResult",
    "ExecReport",
    "ExecTask",
    "ExecLab",
    "LabOptions",
]
