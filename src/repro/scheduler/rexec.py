"""REXEC: UC Berkeley's transparent remote execution (§4.1).

"REXEC provides transparent, secure remote execution of parallel and
sequential jobs.  It has a sophisticated signal handling system which
provides remote forwarding of signals.  REXEC also redirects stdin,
stdout and stderr from each parallel process and it propagates a local
environment including environment variables, user ID, group ID and
current working directory."

The simulated rexecd runs a Python callable "command" per selected node,
capturing its stdout/stderr and honouring forwarded signals; this is
also the transport cluster-fork/cluster-kill ride on (§6.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence, Union

from ..cluster import Machine, MachineState
from ..netsim import Environment, Interrupt

__all__ = [
    "Rexec",
    "RexecSession",
    "RemoteProcess",
    "Signal",
    "RemoteEnvironment",
]


class Signal(enum.Enum):
    SIGTERM = 15
    SIGKILL = 9
    SIGINT = 2
    SIGUSR1 = 10


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
    signals_received: list[Signal] = field(default_factory=list)
    #: the target died (powered off, hung, or was unresolvable) before
    #: the command could finish — the typed NODE_DEAD terminal state
    node_dead: bool = False
    #: why the command never produced an exit code (death cause, abort)
    error: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.exit_code is not None


#: a command is fn(machine, process) -> exit_code; it may write to
#: process.stdout/stderr and read the propagated environment.  A command
#: may instead return a *generator of events* (a timed command):
#: :meth:`Rexec.session` then runs it on the simulation clock and its
#: return value is the exit code; the synchronous :meth:`Rexec.run`
#: refuses it.
RemoteCommand = Callable[
    [Machine, RemoteProcess], Union[int, Generator]
]


class RexecSession:
    """A dispatched command: one RemoteProcess per node."""

    def __init__(self, processes: list[RemoteProcess], unreachable: list[str]):
        self.processes = processes
        self.unreachable = unreachable

    @property
    def stdout(self) -> list[str]:
        """Interleaved stdout, each line tagged with its origin (rank)."""
        out = []
        for p in self.processes:
            out.extend(f"{p.host}: {line}" for line in p.stdout)
        return out

    @property
    def exit_codes(self) -> dict[str, Optional[int]]:
        return {p.host: p.exit_code for p in self.processes}

    @property
    def ok(self) -> bool:
        return not self.unreachable and all(
            p.exit_code == 0 for p in self.processes
        )

    def forward_signal(self, signal: Signal) -> int:
        """Deliver a local signal to every remote process; returns count."""
        n = 0
        for p in self.processes:
            if not p.finished:
                p.signals_received.append(signal)
                if signal in (Signal.SIGTERM, Signal.SIGKILL, Signal.SIGINT):
                    p.exit_code = 128 + signal.value
                n += 1
        return n


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

    def run(
        self,
        hosts: Sequence[str],
        command: RemoteCommand,
        environment: RemoteEnvironment,
    ) -> RexecSession:
        """Execute ``command`` on each reachable, up host, synchronously.

        A timed command (one that returns a generator) raises
        ``TypeError``: only :meth:`session` runs it on the simulation clock.
        """
        processes: list[RemoteProcess] = []
        unreachable: list[str] = []
        for rank, host in enumerate(hosts):
            try:
                machine = self.resolve(host)
            except KeyError:
                unreachable.append(host)
                continue
            if machine.state is not MachineState.UP:
                unreachable.append(host)
                continue
            proc = RemoteProcess(host=host, rank=rank, env=environment)
            try:
                rv = command(machine, proc)
            except Exception as err:
                proc.stderr.append(str(err))
                rv = 1
            if hasattr(rv, "send") and hasattr(rv, "throw"):
                raise TypeError(
                    f"{host}: the command returned a generator (a timed "
                    "command), which Rexec.run cannot run; use Rexec.session "
                    "or repro.exec.ExecTask"
                )
            proc.exit_code = rv
            processes.append(proc)
        return RexecSession(processes, unreachable)
