"""Deterministic discrete-event simulation engine.

This is the clock that everything else in the reproduction runs on: node
boot sequences, package downloads, service restarts, and scheduler ticks
are all processes scheduled here.  The design is a deliberately small
subset of the SimPy process model:

* an :class:`Environment` owns a priority queue of events,
* a :class:`Process` wraps a Python generator; the generator *yields*
  events and is resumed when they trigger,
* :class:`Timeout` is an event that triggers after simulated seconds,
* processes may be interrupted (:meth:`Process.interrupt`), which raises
  :class:`Interrupt` inside the generator — this is how a hard power
  cycle kills a running installation.

Determinism matters: benchmark tables must be reproducible run-to-run,
so ties in the event queue are broken by a monotonically increasing
sequence number, never by object identity.
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import contextmanager
from heapq import heappush
from typing import Any, Callable, Generator, Iterable, Iterator, Optional

from ..telemetry import NULL_TRACER

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "InstrumentedEnvironment",
    "instrumented",
]


class SimulationError(RuntimeError):
    """Raised for illegal uses of the engine (e.g. yielding a non-event)."""


class Interrupt(Exception):
    """Raised inside a process generator when :meth:`Process.interrupt` is called.

    ``cause`` carries an arbitrary payload describing why the process was
    interrupted (for example ``"hard power cycle"``).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*; :meth:`succeed` or :meth:`fail` moves them to
    *triggered* and schedules their callbacks to run at the current
    simulation time.  A process that yields a pending event is suspended
    until the event triggers.
    """

    __slots__ = (
        "env", "callbacks", "_value", "_ok", "_triggered", "_scheduled",
        "_cancelled",
    )

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._scheduled = False
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event has not triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event has not triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        env = self.env
        if env._instrumented:
            env._schedule(self)
            return self
        # Environment._schedule at delay 0, inlined: every process
        # bootstrap, wake and flow completion comes through here.
        self._scheduled = True
        if self._cancelled:
            env._n_cancelled += 1
        heappush(env._queue, (env._now, next(env._seq), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # Negated, so that NaN is refused too.
        if not delay >= 0:
            raise SimulationError(
                f"timeout delay must be non-negative, got {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_n_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = tuple(events)
        self._n_done = 0
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")
            if ev.triggered and not ev._scheduled:
                # Already dispatched: its occurrence is in the past.
                self._on_child(ev)
            else:
                # Pending (including a Timeout, which is born triggered
                # but dispatches at now+delay): observe it at dispatch,
                # like every other callback.
                ev.callbacks.append(self._on_child)
        if not self._triggered:
            self._check(initial=True)

    def _on_child(self, ev: Event) -> None:
        self._n_done += 1
        if not ev._ok and not self._triggered:
            self.fail(ev._value)
            return
        if not self._triggered:
            self._check(initial=False)

    def _check(self, initial: bool) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _detach_children(self) -> None:
        """Stop observing children (the waiter was interrupted away).

        Without this an orphaned condition keeps its ``_on_child``
        callbacks attached: the children's later dispatches still tick
        ``_n_done`` and can trigger the condition long after anyone
        cared — ghost events a trace would faithfully record.
        """
        for ev in self.events:
            try:
                ev.callbacks.remove(self._on_child)
            except ValueError:
                pass


class AllOf(_Condition):
    """Triggers once *all* child events have triggered."""

    __slots__ = ()

    def _check(self, initial: bool) -> None:
        if self._n_done == len(self.events):
            self.succeed(tuple(ev._value for ev in self.events))


class AnyOf(_Condition):
    """Triggers once *any* child event has triggered.

    An **empty** AnyOf triggers immediately (value ``()``), mirroring
    ``AllOf([])`` and SimPy's vacuous-condition semantics.  The
    alternative — an event that can never trigger — silently deadlocks
    any process that yields it, which is how ``AnyOf(env, [])`` in a
    dynamically built wait-set used to hang whole scenarios.
    """

    __slots__ = ()

    def _check(self, initial: bool) -> None:
        if not self.events:
            self.succeed(())
            return
        if self._n_done >= 1:
            for ev in self.events:
                # Only a dispatched child counts as having occurred; an
                # undispatched Timeout sibling is still in the future.
                if ev.triggered and not ev._scheduled:
                    self.succeed(ev._value)
                    return


ProcessGenerator = Generator[Event, Any, Any]

#: allocates an event without running its constructor (see
#: :meth:`Environment.timeout`)
_new_event = object.__new__


class Process(Event):
    """A running process: wraps a generator that yields events.

    The Process is itself an Event that triggers (with the generator's
    return value) when the generator finishes — so processes can wait on
    other processes.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_interrupts")

    def __init__(self, env: "Environment", generator: ProcessGenerator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._interrupts: list[Interrupt] = []
        # Bootstrap: resume the generator at the current time.
        init = Event(env)
        init.callbacks.append(self._resume)
        #: the one event whose dispatch may resume us; None while running
        self._waiting_on: Optional[Event] = init
        init.succeed(None)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process generator.

        Interrupting an already-finished process is an error, as is a
        process interrupting itself.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        if self.env._active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        self._interrupts.append(Interrupt(cause))
        # Detach from whatever event we were waiting on, even one that
        # has triggered but not yet been dispatched (a Timeout, a wake),
        # so only the wake below resumes us.
        target = self._waiting_on
        if target is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            if isinstance(target, _Condition) and not target._triggered:
                # The condition has no waiter left; unhook it from its
                # children so their later dispatches cannot fire it.
                target._detach_children()
        self._wake()

    def _wake(self, ok: bool = True, value: Any = None) -> None:
        """Resume at this instant through a fresh event, which becomes
        the one we wait on."""
        wake = Event(self.env)
        wake.callbacks.append(self._resume)
        self._waiting_on = wake
        if ok:
            wake.succeed(value)
        else:
            wake.fail(value)

    def _resume(self, event: Event) -> None:
        if self._triggered or event is not self._waiting_on:
            return  # finished, or an interrupt moved us to another wake
        self._waiting_on = None
        self.env._active_process = self
        try:
            if self._interrupts:
                exc = self._interrupts.pop(0)
                nxt = self.generator.throw(exc)
            elif event._ok:
                nxt = self.generator.send(event._value)
            else:
                nxt = self.generator.throw(event._value)
        except StopIteration as stop:
            self.env._active_process = None
            self.succeed(stop.value)
            return
        except Interrupt:
            # Generator let the interrupt escape: treat as abnormal end.
            self.env._active_process = None
            self.succeed(None)
            return
        except BaseException as err:
            self.env._active_process = None
            self.fail(err)
            return
        self.env._active_process = None
        if not isinstance(nxt, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {nxt!r}; processes must yield events"
            )
        if nxt.env is not self.env:
            raise SimulationError("process yielded an event from a different environment")
        if self._interrupts:
            # An interrupt arrived while we were deciding what to wait on;
            # deliver it immediately instead of blocking.
            self._wake()
        elif nxt._triggered and not nxt._scheduled:
            # Already dispatched: its outcome is in the past.
            self._wake(nxt._ok, nxt._value)
        else:
            self._waiting_on = nxt
            nxt.callbacks.append(self._resume)


#: the subclass a plain ``Environment()`` builds inside an
#: :func:`instrumented` block; ``None`` builds the base class — the only
#: value with hot-path code attached.
_AMBIENT_CLASS: Optional[type] = None


@contextmanager
def instrumented(cls: type) -> Iterator[None]:
    """Make every plain ``Environment()`` built inside the block a ``cls``.

    The one hook instrumentation uses to reach environments that
    scenarios construct internally (``build_cluster``, ``run_storm``):
    the sanitizer's ``sanitized()`` session enters it with its
    :class:`InstrumentedEnvironment` subclass.  A nested block builds
    its own class until it exits.
    """
    global _AMBIENT_CLASS
    previous = _AMBIENT_CLASS
    _AMBIENT_CLASS = cls
    try:
        yield
    finally:
        _AMBIENT_CLASS = previous


class Environment:
    """Holds simulated time and the pending event queue.

    Construction builds this class unchanged unless an
    :func:`instrumented` block is active, in which case it returns that
    block's subclass (a sanitized environment).  To build
    one explicitly, construct the subclass itself.  Instrumentation adds
    no code to the default dispatch path, and to scheduling only the
    ``_instrumented`` class-flag test in :meth:`Event.succeed`.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "_active_process",
        "_n_cancelled",
        "_slots",
        "events_dispatched",
        "tracer",
    )

    #: whether every event must reach the queue through :meth:`_schedule`;
    #: only an :class:`InstrumentedEnvironment` sets it
    _instrumented = False

    def __new__(cls, *args: Any, **kwargs: Any):
        if cls is Environment and _AMBIENT_CLASS is not None:
            cls = _AMBIENT_CLASS
        return object.__new__(cls)

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._active_process: Optional[Process] = None
        self._n_cancelled = 0
        #: shared timer buckets, keyed by absolute due time — see
        #: :meth:`slotted_timeout`
        self._slots: dict[float, Timeout] = {}
        #: events dispatched (cancelled entries excluded); benchmarks read
        #: this to report events/sec
        self.events_dispatched = 0
        #: telemetry sink; the no-op default costs nothing (see
        #: :mod:`repro.telemetry` — attach a Tracer to opt in)
        self.tracer = NULL_TRACER

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """``Timeout(self, delay, value)``, built and queued in one frame.

        The engine's most frequent event skips the constructor chain and
        :meth:`_schedule`; an instrumented environment overrides this
        with the constructor, so its ``_schedule`` still sees the timer.
        """
        # Negated, so that NaN is refused too.
        if not delay >= 0:
            raise SimulationError(
                f"timeout delay must be non-negative, got {delay!r}")
        event = _new_event(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._triggered = True
        event._scheduled = True
        event._cancelled = False
        event.delay = delay
        heappush(self._queue, (self._now + delay, next(self._seq), event))
        return event

    def slotted_timeout(self, delay: float) -> Timeout:
        """A shared timer: waiters due at the same instant share one event.

        Thousands of identical per-node timers (heartbeats, DHCP retries,
        monitor ticks) otherwise each cost a heap entry per period.  All
        callers asking to wake at the same absolute time get the *same*
        Timeout, collapsing N heap entries into one; each waiter just
        appends its callback.  The value is always ``None``.

        Do **not** ``cancel()`` a slotted timeout: it is shared, and
        cancelling it would silently defuse every co-waiter.  Processes
        waiting on one may still be interrupted normally (interruption
        detaches only that process's callback).
        """
        # Negated, so that NaN is refused too.
        if not delay >= 0:
            raise SimulationError(
                f"timeout delay must be non-negative, got {delay!r}")
        due = self._now + delay
        slot = self._slots.get(due)
        if slot is None or not slot._scheduled or slot._cancelled:
            slot = Timeout(self, delay)
            self._slots[due] = slot
            # First callback: retire the bucket so a later request for the
            # same due time (possible only with delay == 0 mid-dispatch)
            # gets a fresh, still-pending slot.
            slot.callbacks.append(lambda _ev, due=due: self._slots.pop(due, None))
        return slot

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        event._scheduled = True
        if event._cancelled:
            # Triggering an event that was cancelled while pending pushes a
            # dead entry; count it so compaction accounting stays balanced.
            self._n_cancelled += 1
        heapq.heappush(self._queue, (self._now + delay, next(self._seq), event))

    def cancel(self, event: Event) -> None:
        """Defuse an event: its callbacks will never run.

        A cancelled event is marked even when it was never scheduled, so
        ``run(until=event)`` can diagnose an unawaitable stop event
        instead of draining the queue.  Removal from a binary heap is
        O(n), so scheduled entries are cancelled lazily — marked and
        skipped at dispatch — with a periodic compaction once cancelled
        entries dominate the queue.  This is what keeps wakeup-heavy
        workloads (flow recompute storms under fault flapping) from
        growing the queue without bound.
        """
        event.callbacks.clear()
        if event._cancelled:
            return
        event._cancelled = True
        if event._scheduled:
            self._n_cancelled += 1
            if self._n_cancelled > 64 and self._n_cancelled * 2 > len(self._queue):
                self._queue = [
                    entry for entry in self._queue if not entry[2]._cancelled
                ]
                heapq.heapify(self._queue)
                self._n_cancelled = 0

    def step(self) -> None:
        """Dispatch the single next event."""
        if not self._queue:
            raise SimulationError("no more events to step through")
        when, _, event = heapq.heappop(self._queue)
        if event._cancelled:
            self._n_cancelled -= 1
            event._scheduled = False
            return
        self._now = when
        callbacks, event.callbacks = event.callbacks, []
        event._scheduled = False
        self.events_dispatched += 1
        for cb in callbacks:
            cb(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event triggers.

        ``until`` may be a simulated-time deadline (float) or an Event; when
        an Event is given, run() returns its value (raising its exception if
        it failed).  Awaiting a cancelled event raises
        :class:`SimulationError` immediately — its callbacks are gone, so
        it can never trigger, and draining the whole queue first would
        only produce a misleading "ran out of events" error.

        The dispatch loop is inlined rather than delegating to
        :meth:`step`: at 10k-node scale the per-event call overhead is
        measurable, and this loop is the hottest path in the simulator.
        ``self._queue`` is re-read every iteration because a callback may
        trigger compaction in :meth:`cancel`, which rebinds it.
        """
        heappop = heapq.heappop
        if isinstance(until, Event):
            stop_event = until
            while not stop_event._triggered:
                if stop_event._cancelled:
                    raise SimulationError(
                        "run(until=...) awaits a cancelled event, which can never trigger"
                    )
                if not self._queue:
                    raise SimulationError(
                        "simulation ran out of events before the awaited event triggered"
                    )
                when, _, event = heappop(self._queue)
                if event._cancelled:
                    self._n_cancelled -= 1
                    event._scheduled = False
                    continue
                self._now = when
                callbacks, event.callbacks = event.callbacks, []
                event._scheduled = False
                self.events_dispatched += 1
                for cb in callbacks:
                    cb(event)
            if stop_event._ok:
                return stop_event._value
            raise stop_event._value
        deadline = float("inf") if until is None else float(until)
        while self._queue:
            if self._queue[0][0] > deadline:
                break
            when, _, event = heappop(self._queue)
            if event._cancelled:
                self._n_cancelled -= 1
                event._scheduled = False
                continue
            self._now = when
            callbacks, event.callbacks = event.callbacks, []
            event._scheduled = False
            self.events_dispatched += 1
            for cb in callbacks:
                cb(event)
        if deadline != float("inf"):
            self._now = max(self._now, deadline)
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf when the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")


class InstrumentedEnvironment(Environment):
    """Base of the opt-in instrumented environments (the sanitizer's).

    Subclasses observe scheduling and dispatch by overriding
    ``_schedule`` and ``step``; :meth:`run` drives that ``step()`` with
    the base loop's exact semantics, trading raw dispatch speed for
    observability.  Every event reaches ``_schedule``: the class flag
    turns off :meth:`Event.succeed`'s inline push, and :meth:`timeout`
    builds its timer through the constructor.  Build one explicitly, or
    for a whole region with :func:`instrumented`.
    """

    __slots__ = ()

    _instrumented = True

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def run(self, until: Optional[float | Event] = None) -> Any:
        step = self.step
        if isinstance(until, Event):
            stop_event = until
            while not stop_event._triggered:
                if stop_event._cancelled:
                    raise SimulationError(
                        "run(until=...) awaits a cancelled event, "
                        "which can never trigger"
                    )
                if not self._queue:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        "event triggered"
                    )
                step()
            if stop_event._ok:
                return stop_event._value
            raise stop_event._value
        deadline = float("inf") if until is None else float(until)
        while self._queue and self._queue[0][0] <= deadline:
            step()
        if deadline != float("inf"):
            self._now = max(self._now, deadline)
        return None
