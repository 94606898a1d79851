"""mpirun: interactive parallel launch over REXEC (§4.1).

"For interactive and development environments, Rocks includes mpirun
from the MPICH distribution and REXEC...  REXEC provides transparent,
secure remote execution of parallel and sequential jobs."

This mpirun selects N up nodes (a machinefile, or every compute node),
assigns MPI ranks, propagates the caller's environment plus the
``MPI_RANK``/``MPI_NPROCS`` variables MPICH's ch_p4 device exports, and
runs the ranks as one :class:`~repro.exec.ExecTask` over their hosts,
returning its :class:`~repro.exec.ExecReport`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Sequence

from ..exec.task import ExecOptions, ExecReport, ExecTask
from .rexec import RemoteCommand, RemoteEnvironment, RemoteProcess, Rexec

__all__ = ["Mpirun", "MpirunError"]


class MpirunError(Exception):
    """Not enough nodes, or a bad launch request."""


class Mpirun:
    """The mpirun client on the frontend."""

    def __init__(
        self,
        rexec: Rexec,
        default_machinefile: Callable[[], list[str]],
    ):
        """``default_machinefile`` lists candidate hostnames (e.g. the
        database's compute members) when the caller gives none."""
        self.rexec = rexec
        self.default_machinefile = default_machinefile

    def _up_hosts(self, machinefile: Optional[Sequence[str]]) -> list[str]:
        candidates = (
            list(machinefile)
            if machinefile is not None
            else self.default_machinefile()
        )
        up = []
        for host in candidates:
            try:
                machine = self.rexec.resolve(host)
            except KeyError:
                continue
            if machine.is_up:
                up.append(host)
        return up

    def run(
        self,
        np: int,
        command: RemoteCommand,
        environment: RemoteEnvironment,
        machinefile: Optional[Sequence[str]] = None,
        program: str = "a.out",
    ) -> ExecReport:
        """``mpirun -np N command``.

        Ranks wrap around the machinefile when N exceeds the node count
        (MPICH's default round-robin placement).  Each host runs the
        ranks placed on it in rank order, each with its own
        :class:`RemoteProcess` whose environment carries MPI_RANK and
        MPI_NPROCS.  A rank's stdout and stderr are appended to its
        host's, and the host's exit code is its first nonzero rank's; a
        rank that raises ends its host's command with exit 1.
        The program name appears in each node's process table for
        cluster-ps while its ranks run.  As with cluster-fork, each host
        runs once, under the fabric's default per-host deadline.
        """
        if np <= 0:
            raise MpirunError("mpirun: -np must be positive")
        hosts = self._up_hosts(machinefile)
        if not hosts:
            raise MpirunError("mpirun: no up nodes available")
        placement: dict[str, list[int]] = {}
        for rank in range(np):
            placement.setdefault(hosts[rank % len(hosts)], []).append(rank)

        def host_command(machine, proc):
            machine.user_processes.append(program)
            exit_code = 0
            try:
                for rank in placement[proc.host]:
                    # per-rank environments: REXEC propagates, mpirun decorates
                    rank_env = replace(environment, variables={
                        **environment.variables,
                        "MPI_RANK": str(rank),
                        "MPI_NPROCS": str(np),
                    })
                    rank_proc = RemoteProcess(
                        host=proc.host, rank=rank, env=rank_env,
                        stdout=proc.stdout, stderr=proc.stderr,
                    )
                    rv = command(machine, rank_proc)
                    if hasattr(rv, "send") and hasattr(rv, "throw"):
                        rv = yield from rv
                    if exit_code == 0 and isinstance(rv, int):
                        exit_code = rv
            finally:
                if program in machine.user_processes:
                    machine.user_processes.remove(program)
            return exit_code

        env = self.rexec.env
        task = ExecTask(
            env, self.rexec, ExecOptions(max_retries=0), environment
        )
        driver = task.run(list(placement), host_command)
        env.run(until=driver)
        return driver.value
