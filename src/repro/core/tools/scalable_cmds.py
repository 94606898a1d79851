"""Scalable Unix commands over the cluster (§6.4's reference [21]).

"We, like many people who run parallel machines [Ong, Lusk, Gropp], have
our own set of rudimentary scripts to interactively control and monitor
the nodes."  These are those scripts, built on cluster-fork and hence on
REXEC: parallel ps/uptime/rpm-query with merged, host-tagged output, and
the same ``--query`` SQL targeting as cluster-kill.  Each returns
host -> answer for every host that ran the command; a ``NODE_DEAD`` host
is left out.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...exec import ExecState, NodeResult
from ...scheduler.rexec import RemoteCommand
from ..frontend import RocksFrontend
from .cluster_fork import cluster_fork

__all__ = ["cluster_ps", "cluster_uptime", "cluster_rpm_q", "cluster_lsmod"]


def _answers(
    frontend: RocksFrontend,
    command: RemoteCommand,
    nodes: Optional[Sequence[str]],
    query: Optional[str],
) -> dict[str, NodeResult]:
    """Run ``command`` by cluster-fork; host -> result, dead hosts left out."""
    report = cluster_fork(frontend, command, nodes=nodes, query=query)
    results = report.results
    return {
        host: results[host] for host in report.targets
        if results[host].state is not ExecState.NODE_DEAD
    }


def cluster_ps(
    frontend: RocksFrontend,
    nodes: Optional[Sequence[str]] = None,
    query: Optional[str] = None,
) -> dict[str, list[str]]:
    """Parallel ps: host -> running user processes."""

    def ps(machine, proc):
        for name in machine.user_processes:
            proc.stdout.append(name)
        return 0

    answers = _answers(frontend, ps, nodes, query)
    return {host: list(r.stdout) for host, r in answers.items()}


def cluster_uptime(
    frontend: RocksFrontend,
    nodes: Optional[Sequence[str]] = None,
    query: Optional[str] = None,
) -> dict[str, str]:
    """Parallel uptime: host -> state/load one-liner."""

    def uptime(machine, proc):
        proc.stdout.append(
            f"{machine.state.value}, {len(machine.user_processes)} procs, "
            f"kernel {machine.kernel_version}"
        )
        return 0

    answers = _answers(frontend, uptime, nodes, query)
    return {host: r.stdout[0] for host, r in answers.items()}


def cluster_rpm_q(
    frontend: RocksFrontend,
    package: str,
    nodes: Optional[Sequence[str]] = None,
    query: Optional[str] = None,
) -> dict[str, Optional[str]]:
    """Parallel ``rpm -q <package>``: the §3.2 question, asked scalably.

    ("What version of software X do I have on node Y?" — the question
    the reinstall philosophy makes unnecessary, but handy to verify.)
    """

    def rpm_q(machine, proc):
        pkg = machine.rpmdb.query(package)
        proc.stdout.append(pkg.nevra if pkg else f"package {package} is not installed")
        return 0 if pkg else 1

    answers = _answers(frontend, rpm_q, nodes, query)
    return {
        host: r.stdout[0] if r.exit_code == 0 else None
        for host, r in answers.items()
    }


def cluster_lsmod(
    frontend: RocksFrontend,
    nodes: Optional[Sequence[str]] = None,
    query: Optional[str] = None,
) -> dict[str, list[str]]:
    """Parallel lsmod: host -> loaded driver modules."""

    def lsmod(machine, proc):
        for mod in machine.loaded_modules:
            proc.stdout.append(mod)
        return 0

    answers = _answers(frontend, lsmod, nodes, query)
    return {host: list(r.stdout) for host, r in answers.items()}
