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
from ..netsim import AnyOf, Environment, Interrupt, Process

__all__ = [
    "Rexec",
    "RexecSession",
    "RemoteProcess",
    "RemoteDispatch",
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
#: :meth:`Rexec.spawn` then runs it on the simulation clock and its
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


@dataclass
class RemoteDispatch:
    """One in-flight remote command: the live record plus its session.

    ``process`` is the DES process driving the session; it triggers with
    the finished :class:`RemoteProcess` — *always*, even when the target
    host dies mid-command (``node_dead`` is then set and ``exit_code``
    stays ``None``).  ``proc`` is the same record, readable while the
    command is still running (stdout accumulates live).
    """

    host: str
    proc: RemoteProcess
    process: Process

    def abort(self, cause: str = "aborted") -> None:
        """Tear the session down (timeout expiry, operator cancel)."""
        if self.process.is_alive:
            self.process.interrupt(cause)


class Rexec:
    """The rexec client + per-node daemons."""

    def __init__(self, env: Environment, resolve: Callable[[str], Machine]):
        """``resolve`` maps a hostname to its Machine (the cluster view)."""
        self.env = env
        self.resolve = resolve

    # -- event-driven dispatch (the repro.exec transport) ------------------
    def spawn(
        self,
        host: str,
        command: RemoteCommand,
        environment: RemoteEnvironment,
        rank: int = 0,
    ) -> RemoteDispatch:
        """Dispatch one command asynchronously; never hangs on a dead host.

        The returned dispatch's ``process`` resolves with the
        :class:`RemoteProcess` when the command finishes — or *promptly*
        with ``node_dead=True`` when the target is unresolvable, not UP,
        or dies (power-off / hang / teardown) mid-command.  Before the
        dead-watch existed, a session awaiting a command on a host that
        a PDU killed mid-run waited forever; now death is a first-class
        typed result.
        """
        proc = RemoteProcess(host=host, rank=rank, env=environment)
        process = self.env.process(
            self._session(host, command, proc), name=f"rexecd:{host}"
        )
        return RemoteDispatch(host=host, proc=proc, process=process)

    def _session(
        self, host: str, command: RemoteCommand, proc: RemoteProcess
    ) -> Generator:
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

        def body() -> Generator:
            try:
                rv = command(machine, proc)
                if hasattr(rv, "send") and hasattr(rv, "throw"):
                    rv = yield from rv
            except Interrupt:
                raise
            except Exception as err:
                proc.stderr.append(str(err))
                return 1
            return rv if isinstance(rv, int) else 0

        child = env.process(body(), name=f"rexecd-cmd:{host}")
        # The dead-watch: resolve the session the instant the host's OS
        # stops running underneath the command.
        went_off = machine.wait_for_state(MachineState.OFF)
        went_hung = machine.wait_for_state(MachineState.HUNG)
        try:
            yield AnyOf(env, (child, went_off, went_hung))
        except Interrupt as interrupt:
            if child.is_alive:
                child.interrupt(interrupt.cause)
            proc.error = str(interrupt.cause or "aborted")
            return proc
        finally:
            machine.cancel_wait(went_off)
            machine.cancel_wait(went_hung)
        if child.triggered:
            proc.exit_code = child.value if child.ok else 1
            return proc
        child.interrupt("node died")
        proc.node_dead = True
        proc.error = f"host died mid-command (now {machine.state.value})"
        return proc

    def run(
        self,
        hosts: Sequence[str],
        command: RemoteCommand,
        environment: RemoteEnvironment,
    ) -> RexecSession:
        """Execute ``command`` on each reachable, up host, synchronously.

        A timed command (one that returns a generator) raises
        ``TypeError``: only :meth:`spawn` runs it on the simulation clock.
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
                    "command), which Rexec.run cannot run; use Rexec.spawn "
                    "or repro.exec.ExecTask"
                )
            proc.exit_code = rv
            processes.append(proc)
        return RexecSession(processes, unreachable)
