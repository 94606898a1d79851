"""cluster-fork / cluster-kill: SQL-directed parallel commands (§6.4).

"By simply adding an SQL interface to the script makes it more powerful
as the user can intelligently direct the script to a subset of the
nodes...  Any SQL query, including joins, can be fed to cluster-kill."

The target list comes from an explicit ``nodes`` list, a *nodeset
expression* (``compute-0-[0-15],@compute`` — see :mod:`repro.exec`), an
SQL ``query`` returning hostnames (first column), or — the brute-force
default the paper starts from — every name with the ``compute-`` prefix
in /etc/hosts.

Both commands run one :class:`~repro.exec.ExecTask` over the targets on
the frontend's clock, so a timed command takes its simulated time and a
dead host ends ``NODE_DEAD``.  A command runs once per host: a query
that fails is reported, not retried.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ...exec import ExecOptions, ExecReport, ExecTask, GroupResolver, NodeSet
from ...exec.task import _ROOT
from ...scheduler import RemoteEnvironment
from ..frontend import RocksFrontend

__all__ = [
    "cluster_fork",
    "cluster_kill",
    "frontend_groups",
    "targets_from_query",
]

#: targets may be a nodeset expression, an explicit name sequence, or a
#: pre-built NodeSet
Targets = Union[str, NodeSet, Sequence[str]]


def targets_from_query(frontend: RocksFrontend, query: str) -> list[str]:
    """Run an arbitrary SELECT; the first column is the hostname list."""
    return [row[0] for row in frontend.db.query(query)]


def frontend_groups(frontend: RocksFrontend) -> GroupResolver:
    """Group source backed by the cluster database.

    ``@all`` — every compute node; ``@cabinetN`` — the nodes racked in
    cabinet *N*; ``@<membership>`` — the nodes of that membership
    (``@compute``, ``@nfs``, ... — case-insensitive, per Table III).
    """

    def resolve(group: str) -> list[str]:
        db = frontend.db
        if group == "all":
            names = [row.name for row in db.compute_nodes()]
            if names:
                return names
            raise KeyError(group)
        if group.startswith("cabinet") and group[len("cabinet"):].isdigit():
            rack = int(group[len("cabinet"):])
            names = [
                row.name for row in db.compute_nodes() if row.rack == rack
            ]
            if names:
                return names
            raise KeyError(group)
        for _id, name, _appliance, _compute in db.memberships():
            if name.lower() == group.lower():
                rows = db.nodes(membership=name)
                if rows:
                    return [row.name for row in rows]
        raise KeyError(group)

    return resolve


def _resolve_targets(
    frontend: RocksFrontend,
    nodes: Optional[Targets],
    query: Optional[str],
) -> Targets:
    if nodes is not None and query is not None:
        raise ValueError("give either nodes or query, not both")
    if nodes is not None:
        return nodes
    if query is not None:
        return targets_from_query(frontend, query)
    # the paper's first-cut heuristic: grep compute- out of /etc/hosts
    return [
        line.split("\t")[1].split()[-1]
        for line in frontend.hosts_file.splitlines()
        if "\t" in line and line.split("\t")[1].startswith("compute-")
    ]


def cluster_fork(
    frontend: RocksFrontend,
    command,
    nodes: Optional[Targets] = None,
    query: Optional[str] = None,
    environment: RemoteEnvironment = _ROOT,
) -> ExecReport:
    """Run ``command`` (a RemoteCommand callable) on the selected nodes."""
    task = ExecTask(
        frontend.env, frontend.rexec, ExecOptions(max_retries=0),
        environment, resolver=frontend_groups(frontend),
    )
    driver = task.run(_resolve_targets(frontend, nodes, query), command)
    frontend.env.run(until=driver)
    return driver.value


def cluster_kill(
    frontend: RocksFrontend,
    process_name: str,
    nodes: Optional[Targets] = None,
    query: Optional[str] = None,
) -> ExecReport:
    """Kill every process matching ``process_name`` on the selected nodes.

    The paper's §6.4 example:

        cluster-kill --query="select nodes.name from nodes,memberships
            where nodes.membership = memberships.id and
            memberships.name = 'Compute'" bad-job
    """

    def killer(machine, proc):
        victims = [p for p in machine.user_processes if p == process_name]
        for v in victims:
            machine.user_processes.remove(v)
        proc.stdout.append(f"killed {len(victims)} {process_name!r} process(es)")
        return 0

    return cluster_fork(frontend, killer, nodes=nodes, query=query)
