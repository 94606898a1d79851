"""REXEC: UC Berkeley's transparent remote execution (§4.1).

"REXEC provides transparent, secure remote execution of parallel and
sequential jobs.  It has a sophisticated signal handling system which
provides remote forwarding of signals.  REXEC also redirects stdin,
stdout and stderr from each parallel process and it propagates a local
environment including environment variables, user ID, group ID and
current working directory."

The simulated rexecd runs a Python callable "command" on one node inside
the caller's process and captures its stdout/stderr; signal forwarding
is not modelled.  :class:`~repro.exec.ExecTask` drives it across many
nodes, and cluster-fork, cluster-kill (§6.4) and mpirun run on that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Union

from ..cluster import Machine, MachineState
from ..netsim import Environment, Interrupt

__all__ = ["Rexec", "RemoteProcess", "RemoteEnvironment"]


@dataclass(frozen=True)
class RemoteEnvironment:
    """What REXEC propagates from the submitting shell."""

    user: str
    uid: int
    gid: int
    cwd: str
    variables: dict[str, str] = field(default_factory=dict)


@dataclass
class RemoteProcess:
    """One process of a (possibly parallel) rexec job."""

    host: str
    rank: int
    env: RemoteEnvironment
    stdout: list[str] = field(default_factory=list)
    stderr: list[str] = field(default_factory=list)
    exit_code: Optional[int] = None
    #: the target died (powered off, hung, or was unresolvable) before
    #: the command could finish — the typed NODE_DEAD terminal state
    node_dead: bool = False
    #: why the command never produced an exit code (death cause, abort)
    error: Optional[str] = None


#: a command is fn(machine, process) -> exit_code; it may write to
#: process.stdout/stderr and read the propagated environment.  A command
#: may instead return a *generator of events* (a timed command):
#: :meth:`Rexec.session` then runs it on the simulation clock and its
#: return value is the exit code.
RemoteCommand = Callable[
    [Machine, RemoteProcess], Union[int, Generator]
]


class Rexec:
    """The rexec client + per-node daemons."""

    def __init__(self, env: Environment, resolve: Callable[[str], Machine]):
        """``resolve`` maps a hostname to its Machine (the cluster view)."""
        self.env = env
        self.resolve = resolve

    # -- event-driven dispatch (the repro.exec transport) ------------------
    def session(
        self, host: str, command: RemoteCommand, proc: RemoteProcess
    ) -> Generator:
        """Run one command inline in the calling process; return ``proc``.

        Drive it with ``yield from`` inside a process, or wrap it in
        ``env.process`` for a dispatch of its own.  An unresolvable or
        not-UP host returns at once with ``node_dead`` set.  If the host
        powers off or hangs mid-command, the dead-watch interrupts the
        calling process one event later, so a command that ends at that
        instant (even by cutting its own host) still finishes, and a
        deadline due then still wins; the
        :class:`~repro.netsim.Interrupt` leaves the session with
        ``node_dead`` set and ``exit_code`` still ``None``.

        An attempt is interrupted at most once: whoever interrupts the
        caller first sets ``proc.error`` (a caller's deadline must too),
        and the dead-watch stands down when it finds it set.
        """
        env = self.env
        try:
            machine = self.resolve(host)
        except KeyError:
            proc.node_dead = True
            proc.error = "unknown host"
            return proc
        if machine.state is not MachineState.UP:
            proc.node_dead = True
            proc.error = f"host is {machine.state.value}"
            return proc
        caller = env.active_process
        death = None

        def kill(_event) -> None:
            if proc.error is None:
                proc.node_dead = True
                proc.error = (
                    f"host died mid-command (now {machine.state.value})"
                )
                caller.interrupt(proc.error)

        def watch(_machine: Machine, state: MachineState) -> None:
            nonlocal death
            if death is None and (
                state is MachineState.OFF or state is MachineState.HUNG
            ):
                death = env.timeout(0)
                death.callbacks.append(kill)

        listeners = machine.on_state_change
        listeners.append(watch)
        try:
            rv = command(machine, proc)
            if hasattr(rv, "send") and hasattr(rv, "throw"):
                rv = yield from rv
        except Interrupt:
            raise
        except Exception as err:
            proc.stderr.append(str(err))
            rv = 1
        finally:
            listeners.remove(watch)
            if death is not None:
                env.cancel(death)
        proc.exit_code = rv if isinstance(rv, int) else 0
        return proc
