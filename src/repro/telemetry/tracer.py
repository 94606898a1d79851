"""Structured tracing for the simulation: typed spans and events.

Every record is stamped with *simulated* time (``env.now``) and a
monotonically increasing sequence number — never a wall clock — so two
runs of the same seeded scenario produce byte-identical traces.  The
default tracer on every :class:`~repro.netsim.Environment` is the
module-level :data:`NULL_TRACER`, whose methods are no-ops: code is
instrumented unconditionally but pays nothing until a real
:class:`Tracer` is attached (``Tracer().attach(env)``).

Record taxonomy (the ``kind`` field; see :mod:`repro.telemetry.schema`):

* ``install`` / ``install-phase`` — one span per node installation and
  per anaconda phase (dhcp, kickstart, partition, packages, post, myrinet);
* ``http`` — one span per GET, with status and payload size;
* ``http-queue`` — time a GET spent waiting in a server's bounded
  accept queue before admission (child of the ``http`` span);
* ``flow`` — one span per fluid-flow transfer (done/cancelled), with a
  ``bottleneck`` attr naming the narrowest link on its path;
* ``service`` — lifecycle events (start/stop/restart/fail/repair);
* ``fault`` — every action a :class:`~repro.faults.FaultInjector` takes
  (an event per action, plus one span per delivered fault window);
* ``campaign`` / ``campaign-node`` — reinstall-campaign supervision,
  with per-attempt and escalation events;
* ``reinstall`` — the root span of a plain (non-campaign) mass reinstall;
* ``download-retry`` / ``download-failed`` — installer fetch retries;
* ``retry-wait`` — installer backoff sleep between fetch attempts;
* ``dead-wait`` — time a reinstall supervisor spent waiting on a node
  that never came back before its deadline expired;
* ``shoot`` — one span per shoot-node invocation, wall-to-wall: reboot
  (or PDU cycle) through installation and back UP; the per-node unit a
  critical path attributes as node-boot time;
* ``boot`` — one span per *caused* machine boot attempt (POST through
  multi-user UP), parented on whatever triggered it — a shoot, a
  storm's power restore; uncaused boots (manual power_on) stay
  unspanned;
* ``exec`` / ``exec-node`` / ``exec-retry`` — the parallel-exec fabric:
  one root span per fanout, one child span per target node, one span
  per backoff between command retries (plus ``exec-straggler`` events);
* ``storm`` — the root span of a power-restore install storm;
* ``autoscale`` — replica-autoscaler scale-up/down actions;
* ``supervisor-restart`` / ``supervisor-degraded`` — service-supervisor
  actions (plus ``supervisor.probes``/``supervisor.restarts`` counters);
* ``http-reject`` — a request shed by admission control (503 with
  Retry-After; queue depth is the ``http.queue_depth/<host>`` gauge);
* ``breaker`` — circuit-breaker state transitions (closed/open/half-open);
* ``frontend-crash`` / ``journal-replay`` — a frontend crash and the
  database-journal replay span that recovers from it;
* ``alert`` / ``alert-clear`` — typed alerts the monitoring
  :class:`~repro.monitoring.AlertEngine` raises and clears (node-down,
  install-stuck, http-shed, link-saturated, service-down), with
  ``alerts.fired/<kind>`` counters alongside.

Trace context: every span carries ``span_id`` (its own sequence number
— deterministic, never random), ``parent_id`` (the span it was caused
by, or ``None`` for a root), and ``trace_id`` (the ``span_id`` of its
root).  Causality is threaded two ways: explicitly, via the ``parent=``
keyword on :meth:`Tracer.span` / :meth:`Tracer.record_span` /
:meth:`Tracer.event`; or ambiently, via ``with tracer.context(span):``
for *synchronous* regions only — ambient context must never be held
across a simulation ``yield``, or concurrent processes would adopt each
other's parents.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Optional

from .metrics import Metrics, NullMetrics

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "NULL_SPAN"]


class Span:
    """An interval of simulated time: opened now, closed by :meth:`end`.

    ``attrs`` carries arbitrary JSON-serialisable context (host, path,
    outcome).  A span left open at export time serialises with
    ``t1: null`` — useful for spotting work the simulation abandoned.

    ``span_id`` equals ``seq`` (deterministic); ``parent_id`` names the
    causing span, ``trace_id`` the root of the causality tree.
    """

    __slots__ = ("seq", "kind", "name", "t0", "t1", "attrs", "_tracer",
                 "parent_id", "trace_id")

    def __init__(self, tracer: "Tracer", seq: int, kind: str, name: str,
                 t0: float, attrs: dict, parent: Optional["Span"] = None):
        self._tracer = tracer
        self.seq = seq
        self.kind = kind
        self.name = name
        self.t0 = t0
        self.t1: Optional[float] = None
        self.attrs = attrs
        if parent is not None:
            self.parent_id: Optional[int] = parent.span_id
            self.trace_id = parent.trace_id
        else:
            self.parent_id = None
            self.trace_id = seq

    @property
    def span_id(self) -> int:
        return self.seq

    @property
    def duration(self) -> Optional[float]:
        return None if self.t1 is None else self.t1 - self.t0

    def end(self, **attrs: Any) -> None:
        """Close the span at the current simulated time."""
        if self.t1 is None:
            self.t1 = self._tracer.now
            if attrs:
                self.attrs.update(attrs)

    # Context-manager form: `with tracer.span(...) as span:` guarantees
    # the span closes — the shape the RK204 determinism lint asks for.
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end(outcome="error" if exc_type is not None else
                 self.attrs.get("outcome", "ok"))

    def to_record(self) -> dict:
        return {
            "type": "span",
            "seq": self.seq,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "kind": self.kind,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = "open" if self.t1 is None else f"{self.t1:.2f}"
        return f"Span({self.kind}/{self.name}, {self.t0:.2f}..{end})"


class _NullSpan:
    """Shared do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    span_id = None
    parent_id = None
    trace_id = None

    def end(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans, events, and metrics from an attached environment."""

    enabled = True

    def __init__(self):
        self.env = None
        self.metrics = Metrics()
        self._seq = itertools.count()
        self._records: list = []  # Span objects and event dicts, seq order
        self._ctx: list = []  # ambient parent stack (synchronous regions only)

    # -- wiring ------------------------------------------------------------
    def attach(self, env) -> "Tracer":
        """Make this the environment's tracer (``env.tracer = self``)."""
        self.env = env
        self.metrics.attach(env)
        env.tracer = self
        return self

    @property
    def now(self) -> float:
        return 0.0 if self.env is None else self.env.now

    # -- trace context -----------------------------------------------------
    def context(self, span: Optional[Span]):
        """Make ``span`` the ambient parent for the enclosed region.

        Synchronous regions only: never hold a context across a
        simulation ``yield`` — interleaved processes would parent their
        spans on whichever context happened to be on top of the stack.
        """
        return _TraceContext(self, span)

    def _resolve_parent(self, parent: Optional[Span]) -> Optional[Span]:
        if isinstance(parent, Span):
            return parent
        # Fall back to the ambient context (None when no block is active;
        # NULL_SPAN placeholders from a disabled tracer also land here).
        ambient = self._ctx[-1] if self._ctx else None
        return ambient if isinstance(ambient, Span) else None

    # -- recording ---------------------------------------------------------
    def event(self, kind: str, name: str,
              parent: Optional[Span] = None, **attrs: Any) -> None:
        """Record an instantaneous occurrence at the current time."""
        record = {
            "type": "event",
            "seq": next(self._seq),
            "kind": kind,
            "name": name,
            "t": self.now,
            "attrs": attrs,
        }
        parent = self._resolve_parent(parent)
        if parent is not None:
            record["parent_id"] = parent.span_id
            record["trace_id"] = parent.trace_id
        self._records.append(record)

    def span(self, kind: str, name: str,
             parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Open a span at the current time; close it with ``span.end()``."""
        span = Span(self, next(self._seq), kind, name, self.now, attrs,
                    parent=self._resolve_parent(parent))
        self._records.append(span)
        return span

    def record_span(self, kind: str, name: str, t0: float,
                    parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Record a span that began at ``t0`` and ends now (retrospective)."""
        span = Span(self, next(self._seq), kind, name, t0, attrs,
                    parent=self._resolve_parent(parent))
        span.t1 = self.now
        self._records.append(span)
        return span

    # -- reading -----------------------------------------------------------
    def iter_records(self) -> Iterator[dict]:
        """All span/event records as plain dicts, in creation order."""
        for rec in self._records:
            yield rec.to_record() if isinstance(rec, Span) else rec

    @property
    def n_records(self) -> int:
        return len(self._records)

    def spans(self, kind: Optional[str] = None) -> list[Span]:
        return [r for r in self._records
                if isinstance(r, Span) and (kind is None or r.kind == kind)]

    def events(self, kind: Optional[str] = None) -> list[dict]:
        return [r for r in self._records
                if isinstance(r, dict) and (kind is None or r["kind"] == kind)]


class _TraceContext:
    """Context manager pushing a span onto the ambient parent stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: Tracer, span: Optional[Span]):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Optional[Span]:
        self._tracer._ctx.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._ctx.pop()


class _NullContext:
    """Do-nothing stand-in for :class:`_TraceContext` on the null tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The zero-overhead default: every method is a no-op.

    ``enabled`` is False so hot paths (flow reallocation, per-request
    accounting) can skip even the cost of building attribute dicts.
    """

    enabled = False

    def __init__(self):
        self.metrics = NullMetrics()

    def attach(self, env) -> "NullTracer":
        env.tracer = self
        return self

    @property
    def now(self) -> float:
        return 0.0

    def context(self, span: Any = None) -> _NullContext:
        return _NULL_CONTEXT

    def event(self, kind: str, name: str, parent: Any = None,
              **attrs: Any) -> None:
        pass

    def span(self, kind: str, name: str, parent: Any = None,
             **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def record_span(self, kind: str, name: str, t0: float, parent: Any = None,
                    **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def iter_records(self) -> Iterator[dict]:
        return iter(())

    @property
    def n_records(self) -> int:
        return 0

    def spans(self, kind: Optional[str] = None) -> list:
        return []

    def events(self, kind: Optional[str] = None) -> list:
        return []


#: Shared no-op tracer; the default on every Environment.
NULL_TRACER = NullTracer()
