"""The clush-style execution engine: fanout, timeouts, retries, stragglers.

:class:`ExecTask` runs one command across a nodeset over the
:class:`~repro.scheduler.rexec.Rexec` transport with

* a **sliding fanout window** — ``min(fanout, targets)`` slot
  processes, each running one node at a time and taking the next
  pending node the instant its last one ends (no barrier between
  waves, so one slow node never stalls the window);
* a **per-node timeout** — an attempt that exceeds ``command_timeout``
  is aborted and retried after seeded-jitter exponential backoff
  (``BACKOFF``, ``BACKOFF_FACTOR``, ``JITTER``);
* **typed terminal classification** — every target ends in exactly one
  of :class:`ExecState` ``OK`` / ``TIMEOUT`` / ``NODE_DEAD`` /
  ``RETRIES_EXHAUSTED``; a campaign never hangs on a dead node and
  never loses a node from the report;
* **straggler detection** — once ``STRAGGLER_AFTER`` of the nodes have
  finished, the ``STRAGGLER_PERCENTILE`` of their completion times flags
  nodes running ``straggler_factor`` times slower than their peers.

All randomness (retry jitter) flows from per-node RNGs seeded by
``(options.seed, node name)``, so the same seed produces a byte-identical
:meth:`ExecReport.render` regardless of event interleaving or
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import bisect
import enum
import math
import random
from dataclasses import dataclass, field
from typing import Generator, Iterable, Optional, Sequence, Union

from ..netsim import AllOf, Environment, Interrupt, Process
from ..scheduler.rexec import (
    RemoteCommand,
    RemoteEnvironment,
    RemoteProcess,
    Rexec,
)
from .msgtree import MsgTree
from .nodeset import GroupResolver, NodeSet

__all__ = [
    "ExecState",
    "ExecOptions",
    "NodeResult",
    "ExecReport",
    "ExecTask",
]

_ROOT = RemoteEnvironment(user="root", uid=0, gid=0, cwd="/root")

#: base retry delay; grows by ``BACKOFF_FACTOR`` per attempt
BACKOFF = 5.0
BACKOFF_FACTOR = 2.0
#: fractional seeded jitter on each backoff: delay *= 1 + JITTER*U(0,1)
JITTER = 0.25
#: start flagging stragglers once this fraction of nodes finished
STRAGGLER_AFTER = 0.5
#: rolling completion-time percentile stragglers are measured against
STRAGGLER_PERCENTILE = 0.9


class ExecState(enum.Enum):
    """Terminal classification of one target node."""

    OK = "OK"                                # exit code 0
    TIMEOUT = "TIMEOUT"                      # final attempt hit the deadline
    NODE_DEAD = "NODE_DEAD"                  # unreachable / died mid-command
    RETRIES_EXHAUSTED = "RETRIES_EXHAUSTED"  # kept failing (nonzero exit)


@dataclass(frozen=True)
class ExecOptions:
    """Knobs for one task; defaults suit the 10-minute reinstall scale."""

    #: sliding-window width: nodes in flight at once
    fanout: int = 64
    #: per-attempt deadline in simulated seconds
    command_timeout: float = 300.0
    #: extra attempts after the first (timeouts and nonzero exits retry)
    max_retries: int = 2
    seed: int = 0
    #: flag nodes slower than factor x percentile (0 or less: never)
    straggler_factor: float = 3.0
    #: how often (simulated seconds) the straggler monitor looks
    straggler_interval: float = 15.0

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ValueError("fanout must be at least 1")
        # The negated comparisons refuse NaN too.
        if not self.command_timeout > 0:
            raise ValueError("command_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if math.isnan(self.straggler_factor):
            raise ValueError("straggler_factor must be a number")
        if not self.straggler_interval > 0:
            raise ValueError("straggler_interval must be positive")


@dataclass
class NodeResult:
    """Everything the engine learned about one target."""

    node: str
    state: ExecState
    exit_code: Optional[int]
    attempts: int
    stdout: list[str] = field(default_factory=list)
    stderr: list[str] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    straggler: bool = False
    error: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class ExecReport:
    """One task's complete, deterministic account."""

    targets: list[str]
    options: ExecOptions
    started_at: float
    finished_at: float
    results: dict[str, NodeResult]

    @property
    def seconds(self) -> float:
        return self.finished_at - self.started_at

    def count(self, state: ExecState) -> int:
        return sum(1 for r in self.results.values() if r.state is state)

    def nodes(self, state: ExecState) -> NodeSet:
        return NodeSet.from_names(
            name for name in sorted(self.results)
            if self.results[name].state is state
        )

    @property
    def stragglers(self) -> NodeSet:
        return NodeSet.from_names(
            name for name in sorted(self.results)
            if self.results[name].straggler
        )

    @property
    def ok(self) -> bool:
        return all(r.state is ExecState.OK for r in self.results.values())

    def msgtree(self) -> MsgTree:
        """Merged stdout of every node that produced output."""
        tree = MsgTree()
        for name in sorted(self.results):
            result = self.results[name]
            for line in result.stdout:
                tree.add(name, line)
        return tree

    def render(self) -> str:
        """The gathered report: summary, merged output, failure detail."""
        opts = self.options
        lines = [
            f"exec: {len(self.targets)} targets, fanout {opts.fanout}, "
            f"{self.seconds:.1f}s simulated"
        ]
        for state in ExecState:
            lines.append(f"  {state.value:<18} {self.count(state):>5}")
        tree = self.msgtree()
        if len(tree):
            lines.append("---")
            lines.append(tree.render())
        failures: dict[tuple[str, str], NodeSet] = {}
        for name in sorted(self.results):
            result = self.results[name]
            if result.state is ExecState.OK:
                continue
            key = (result.state.value, result.error or "")
            failures.setdefault(key, NodeSet()).add(name)
        if failures:
            lines.append("---")
            for (state, error), nodes in sorted(failures.items()):
                detail = f": {error}" if error else ""
                lines.append(f"{state} {nodes.fold()} ({len(nodes)}){detail}")
        stragglers = self.stragglers
        if stragglers:
            lines.append(
                f"stragglers ({len(stragglers)}): {stragglers.fold()}"
            )
        return "\n".join(lines)


class _TaskState:
    """Mutable bookkeeping shared by the slots and the straggler monitor."""

    __slots__ = (
        "names", "command", "launched", "active", "results",
        "durations", "flagged", "started", "span", "tick",
    )

    def __init__(self, names: list[str], command: RemoteCommand) -> None:
        self.names = names
        self.command = command
        #: targets taken by a slot so far; the next one's launch index
        self.launched = 0
        #: the fanout's root `exec` span (None when tracing is off);
        #: per-node `exec-node` spans parent here
        self.span = None
        #: node -> attempt start time, insertion-ordered (live window)
        self.active: dict[str, float] = {}
        #: node -> NodeResult, completion order (render paths re-sort)
        self.results: dict[str, NodeResult] = {}
        #: sorted completion durations of finished nodes
        self.durations: list[float] = []
        #: nodes the straggler monitor has flagged while still running
        self.flagged: dict[str, None] = {}
        self.started = 0.0
        #: the straggler monitor's pending timer, cancelled when the last
        #: node finishes so no event outlives the task
        self.tick = None


class ExecTask:
    """Run callables across the cluster; survives dead nodes and stragglers."""

    def __init__(
        self,
        env: Environment,
        rexec: Rexec,
        options: ExecOptions = ExecOptions(),
        environment: RemoteEnvironment = _ROOT,
        resolver: Optional[GroupResolver] = None,
    ):
        self.env = env
        self.rexec = rexec
        self.options = options
        self.environment = environment
        self.resolver = resolver

    # -- target normalization ---------------------------------------------
    def expand_targets(
        self, targets: Union[str, NodeSet, Sequence[str]]
    ) -> list[str]:
        """Nodeset text / NodeSet / explicit sequence -> ordered name list."""
        if isinstance(targets, str):
            return NodeSet(targets, resolver=self.resolver).expand()
        if isinstance(targets, NodeSet):
            return targets.expand()
        out: dict[str, None] = {}
        for name in targets:
            out[name] = None
        return list(out)

    # -- the engine --------------------------------------------------------
    def run(
        self,
        targets: Union[str, NodeSet, Sequence[str]],
        command: RemoteCommand,
    ) -> Process:
        """Drive the whole task; the process yields an :class:`ExecReport`."""
        names = self.expand_targets(targets)
        return self.env.process(
            self._drive(names, command), name=f"exec:x{len(names)}"
        )

    def _drive(self, names: list[str], command: RemoteCommand) -> Generator:
        env = self.env
        state = _TaskState(names, command)
        state.started = env.now
        tracer = env.tracer
        span = (
            tracer.span("exec", f"x{len(names)}",
                        targets=len(names), fanout=self.options.fanout)
            if tracer.enabled
            else None
        )
        state.span = span
        slots = [
            env.process(self._slot(state), name=f"exec:slot{i}")
            for i in range(min(self.options.fanout, len(names)))
        ]
        if self.options.straggler_factor > 0 and len(names) > 1:
            env.process(self._straggle_monitor(state),
                        name="exec:straggler-monitor")
        yield AllOf(env, slots)
        report = ExecReport(
            targets=names,
            options=self.options,
            started_at=state.started,
            finished_at=env.now,
            results=state.results,
        )
        if span is not None:
            span.end(**{s.value: report.count(s) for s in ExecState},
                     stragglers=len(report.stragglers))
        return report

    def _slot(self, state: _TaskState) -> Generator:
        """One fanout slot: run pending targets one after another.

        Each target's attempt loop (dispatch -> classify -> maybe retry)
        runs inline, and the slot takes the next pending target at the
        instant the last one ends, so a target costs only its command's
        own events.  The deadline and the session's dead-watch interrupt
        the slot at most once per attempt, and the interrupt is caught
        here, in the process's outermost frame: caught in a frame below
        it, ``cProfile`` records an all-zero ``generator.throw`` edge.
        """
        env = self.env
        opts = self.options
        timeout = opts.command_timeout
        tracer = env.tracer
        names = state.names
        slot = env.active_process

        def expire(_event) -> None:
            if proc.error is None:  # else a death interrupted it first
                proc.error = f"timeout after {timeout:g}s"
                slot.interrupt(proc.error)

        while state.launched < len(names):
            rank = state.launched
            name = names[rank]
            state.launched += 1
            # Built on the first retry: it is seeded per node, so the
            # jitter sequence does not depend on when, and most nodes
            # never retry.
            rng = None
            result = NodeResult(
                node=name, state=ExecState.OK, exit_code=None,
                attempts=0, started_at=env.now,
            )
            node_span = (
                tracer.span("exec-node", name, parent=state.span,
                            host=name, rank=rank)
                if tracer.enabled
                else None
            )
            while True:
                result.attempts += 1
                state.active[name] = env.now
                proc = RemoteProcess(host=name, rank=rank,
                                     env=self.environment)
                deadline = env.timeout(timeout)
                deadline.callbacks.append(expire)
                try:
                    yield from self.rexec.session(name, state.command, proc)
                except Interrupt:
                    pass  # proc.node_dead tells a death from the deadline
                finally:
                    env.cancel(deadline)
                result.stdout = proc.stdout
                result.stderr = proc.stderr
                result.exit_code = proc.exit_code
                if proc.node_dead:
                    # Dead is terminal immediately: rebooting hardware is
                    # the reinstall campaign's job, not the command fabric's.
                    result.state = ExecState.NODE_DEAD
                    result.error = proc.error
                    break
                if proc.error is not None:
                    result.error = (
                        f"timed out after {timeout:g}s "
                        f"(attempt {result.attempts})"
                    )
                    terminal = ExecState.TIMEOUT
                elif proc.exit_code == 0:
                    result.error = None
                    break
                else:
                    result.error = (
                        f"exit {proc.exit_code} (attempt {result.attempts})"
                    )
                    terminal = ExecState.RETRIES_EXHAUSTED
                if result.attempts > opts.max_retries:
                    result.state = terminal
                    break
                if rng is None:
                    rng = random.Random(
                        ("repro.exec", opts.seed, name).__repr__())
                delay = BACKOFF * BACKOFF_FACTOR ** (result.attempts - 1)
                delay *= 1.0 + JITTER * rng.random()
                if node_span is not None:
                    # Backoff between command attempts: straggler time the
                    # critical-path analyzer attributes to retry chains.
                    with tracer.span("exec-retry", name, parent=node_span,
                                     host=name, attempt=result.attempts,
                                     delay=delay):
                        yield env.timeout(delay)
                else:
                    yield env.timeout(delay)
            result.finished_at = env.now
            if node_span is not None:
                node_span.end(
                    outcome=result.state.value, attempts=result.attempts
                )
            del state.active[name]
            result.straggler = name in state.flagged
            state.results[name] = result
            if result.state is ExecState.OK:
                bisect.insort(state.durations, result.seconds)
        if len(state.results) == len(names) and state.tick is not None:
            env.cancel(state.tick)

    def _straggle_monitor(self, state: _TaskState) -> Generator:
        """Flag in-flight nodes running far behind the completed pack."""
        env = self.env
        opts = self.options
        while len(state.results) < len(state.names):
            state.tick = env.timeout(opts.straggler_interval)
            yield state.tick
            finished = state.durations
            if len(finished) < max(
                2, int(STRAGGLER_AFTER * len(state.names))
            ):
                continue
            idx = min(
                len(finished) - 1,
                max(0, int(STRAGGLER_PERCENTILE * len(finished)) - 1),
            )
            threshold = opts.straggler_factor * finished[idx]
            if threshold <= 0:
                continue
            for name, started in state.active.items():
                if name not in state.flagged and env.now - started > threshold:
                    state.flagged[name] = None
                    if env.tracer.enabled:
                        env.tracer.event(
                            "exec-straggler", name, parent=state.span,
                            host=name,
                            elapsed=env.now - started, threshold=threshold,
                        )
