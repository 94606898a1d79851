"""Fluid-flow bandwidth model with max-min fair sharing.

Package downloads during a Kickstart reinstall are modelled as *flows*:
a number of bytes moving along a path of capacity-limited links.  When
several nodes reinstall concurrently their flows share the install
server's uplink, and the classic **progressive-filling max-min fair**
allocation decides who gets what.  This is the mechanism behind Table I
of the paper: with few nodes every flow gets its full demand, and past
the server's saturation point (~7 concurrent full-speed installs on
100 Mbit) per-flow rates drop and reinstall times stretch.

Rates are recomputed **incrementally**.  Max-min allocation decomposes
exactly along bottleneck *components* (flows transitively sharing a
link), and every live flow points at its component, which persists
across reallocations: a new flow joins (or merges) the components its
path touches, and a departing flow leaves its own, which is re-walked
only when the departure may have split it.  A flow start, finish,
cancel or capacity change marks its links dirty, and only the
components on the dirty links are credited and refilled, so untouched
groups keep their rates.  Between recomputations every flow progresses
linearly, and the earliest completion across all components is tracked
in a lazy min-heap instead of an O(flows) scan, so completion times can
still be scheduled exactly and the simulation stays deterministic at
10k-node scale.
"""

from __future__ import annotations

import heapq
import itertools
import math
from operator import attrgetter
from typing import Any, Iterable, Optional

from .engine import Environment, Event, SimulationError

__all__ = ["Link", "Flow", "FlowNetwork"]

#: Rates below this (bytes/sec) are treated as zero to avoid float dust.
_EPS = 1e-9

_flow_seq = attrgetter("_seq")


class Link:
    """A capacity-limited, unidirectional network resource.

    ``capacity`` is in bytes/second.  A link with ``capacity=None`` is
    unconstrained (useful for switch backplanes we do not model).
    """

    __slots__ = ("name", "capacity", "bytes_carried", "_flows")

    def __init__(self, name: str, capacity: Optional[float]):
        if capacity is not None and not capacity > 0:  # rejects NaN too
            raise ValueError(f"link capacity must be positive, got {capacity!r}")
        self.name = name
        self.capacity = capacity
        #: cumulative payload bytes this link has carried (flows credit it
        #: as they progress; multicast datagrams add their payload too) —
        #: the per-NIC counter monitoring agents sample.
        self.bytes_carried = 0.0
        # Insertion-ordered (dict-as-set): iteration order, and therefore
        # every float sum and event seq derived from it, is deterministic.
        self._flows: dict["Flow", None] = {}

    @property
    def n_flows(self) -> int:
        return len(self._flows)

    def utilization(self) -> float:
        """Current fraction of capacity in use, always within [0, 1].

        Infinite-rate flows (allocated while their whole path was
        unconstrained, before this link regained a finite capacity) are
        excluded, and transient oversubscription — a capacity degraded
        under live flows, before the next ``recompute()`` — clamps to 1.
        """
        if self.capacity is None:
            return 0.0
        # Explicit loop, no genexpr/isinf frames: monitoring agents call
        # this for every NIC on every sample tick.
        inf = math.inf
        used = 0.0
        for f in self._flows:
            rate = f.rate
            if rate != inf:
                used += rate
        return min(used / self.capacity, 1.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "inf" if self.capacity is None else f"{self.capacity:.0f}B/s"
        return f"Link({self.name!r}, {cap}, {len(self._flows)} flows)"


class Flow:
    """An in-flight transfer of ``size`` bytes along ``path``.

    ``max_rate`` caps the flow below its fair share — this models a
    receiver that cannot consume faster than it installs packages.
    ``done`` is an engine Event that triggers when the last byte lands.
    """

    __slots__ = (
        "network",
        "path",
        "size",
        "remaining",
        "max_rate",
        "rate",
        "done",
        "started_at",
        "finished_at",
        "label",
        "_completion_seq",
        "_span",
        "_seq",
        "_last_credit",
        "_eta_gen",
        "_comp",
    )

    def __init__(
        self,
        network: "FlowNetwork",
        path: tuple[Link, ...],
        size: float,
        max_rate: Optional[float],
        label: str,
    ):
        self.network = network
        self.path = path
        self.size = float(size)
        self.remaining = float(size)
        self.max_rate = max_rate
        self.rate = 0.0
        self.done: Event = network.env.event()
        self.started_at = network.env.now
        self.finished_at: Optional[float] = None
        self.label = label
        self._completion_seq = 0
        self._span = None  # telemetry span, when tracing is enabled
        #: start order, used to sort component members deterministically
        self._seq = next(network._flow_seq_counter)
        #: per-flow credit anchor: the instant ``remaining`` was last true
        self._last_credit = network.env.now
        #: generation counter invalidating stale completion-heap entries
        self._eta_gen = 0
        #: the bottleneck component this flow belongs to while it is live
        self._comp: Optional[_Component] = None

    @property
    def elapsed(self) -> float:
        end = self.finished_at if self.finished_at is not None else self.network.env.now
        return end - self.started_at

    def cancel(self) -> None:
        """Abort the transfer; ``done`` fails with :class:`TransferAborted`."""
        self.network._cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Flow({self.label!r}, {self.remaining:.0f}/{self.size:.0f}B, "
            f"{self.rate:.0f}B/s)"
        )


class _Component:
    """A bottleneck component: live flows that transitively share a link.

    ``flows`` is insertion-ordered and holds the members in start
    (``_seq``) order.  Every live flow on a member's link is itself a
    member, so ``len(link._flows)`` counts the members on ``link``.
    """

    __slots__ = ("flows",)

    def __init__(self, flows: dict[Flow, None]):
        self.flows = flows
        for flow in flows:
            flow._comp = self


def _merge(a: _Component, b: _Component) -> _Component:
    """One component for the members of two that a new flow bridges."""
    return _Component(dict.fromkeys(sorted([*a.flows, *b.flows], key=_flow_seq)))


def _split(members: dict[Flow, None]) -> None:
    """Re-walk ``members`` into the components they now form.

    Breadth-first over shared links, seeded in start order; the sets
    are membership filters only, never iterated.
    """
    seen_flows: set[Flow] = set()
    seen_links: set[Link] = set()
    for seed in members:
        if seed in seen_flows:
            continue
        seen_flows.add(seed)
        part = [seed]
        for flow in part:
            for link in flow.path:
                if link in seen_links:
                    continue
                seen_links.add(link)
                for other in link._flows:
                    if other not in seen_flows:
                        seen_flows.add(other)
                        part.append(other)
        part.sort(key=_flow_seq)
        _Component(dict.fromkeys(part))


class TransferAborted(Exception):
    """The flow was cancelled before completion (e.g. node power-cycled)."""


class FlowNetwork:
    """Tracks active flows and keeps their max-min fair rates current.

    Every live flow points at its bottleneck component, kept current by
    :meth:`transfer` and :meth:`_detach`, and a change recomputes only
    the components on the links it touches.  The test suite keeps a
    full-recompute subclass as a differential oracle: it finds every
    component from the live flow set alone by breadth-first search and
    refills all of them on every change, with a per-flow progressive
    fill and an all-links utilization sampler.  The two must produce
    bit-identical rates, completion times and ``link.util/*`` gauge
    series.
    """

    __slots__ = (
        "env",
        "_flows",
        "_flow_seq_counter",
        "_dirty",
        "_dirty_all",
        "_eta_heap",
        "_wakeup",
        "_wakeup_time",
        "_wakeup_gen",
        "_bytes_moved",
        "_util_traced",
        "_util_touched",
        "_epoch",
    )

    def __init__(self, env: Environment):
        self.env = env
        # dict-as-set: insertion-ordered, so rate credits and completion
        # seqs are assigned in a run-to-run deterministic order.
        self._flows: dict[Flow, None] = {}
        self._flow_seq_counter = itertools.count()
        # Links whose flow set or capacity changed since the last
        # reallocation (dict-as-set, marked in deterministic op order).
        self._dirty: dict[Link, None] = {}
        self._dirty_all = False
        # Lazy min-heap of (eta, flow_seq, eta_gen, flow, rel, anchor):
        # the next completion instant per live flow.  Entries whose gen
        # no longer matches flow._eta_gen are skipped at pop time.
        self._eta_heap: list[tuple[float, int, int, Flow, float, float]] = []
        self._wakeup: Optional[Event] = None
        self._wakeup_time = math.inf
        self._wakeup_gen = 0
        self._bytes_moved = 0.0
        self._util_traced: dict[Link, float] = {}
        # Links to sample at the next fill; None while tracing is off.
        self._util_touched: Optional[dict[Link, None]] = None
        # Bumped on every reallocation; detects reentrant flow ops from
        # synchronous completion callbacks.
        self._epoch = 0

    # -- public API -------------------------------------------------------
    def transfer(
        self,
        path: Iterable[Link],
        size: float,
        max_rate: Optional[float] = None,
        label: str = "",
        parent=None,
    ) -> Flow:
        """Start a transfer; returns the :class:`Flow` (wait on ``flow.done``).

        ``parent`` (a tracer span) parents the flow's span, threading
        trace context from whatever caused the transfer (an HTTP GET, a
        monitoring push) down to the wire.
        """
        # Negated comparisons, so that NaN is rejected too.
        if not size >= 0:
            raise ValueError(f"transfer size must be non-negative, got {size!r}")
        if max_rate is not None and not max_rate > 0:
            raise ValueError(f"max_rate must be positive, got {max_rate!r}")
        flow = Flow(self, tuple(path), size, max_rate, label)
        tracer = self.env.tracer
        if tracer.enabled:
            # The narrowest link on the path is the flow's best-case
            # bottleneck — what the critical-path analyzer names when a
            # transfer's time is attributed to "link X saturation".
            bottleneck = min(
                flow.path,
                key=lambda link: (
                    math.inf if link.capacity is None else link.capacity
                ),
                default=None,
            )
            flow._span = tracer.span(
                "flow",
                label or "flow",
                parent=parent,
                size=float(size),
                links=[link.name for link in flow.path],
                bottleneck=bottleneck.name if bottleneck is not None else "",
            )
        if size == 0:
            flow.finished_at = self.env.now
            flow.done.succeed(flow)
            if flow._span is not None:
                flow._span.end(outcome="done")
                flow._span = None
            return flow
        # Join the components the path touches.  All flows on a link
        # share one component, so the link's first flow names it.
        comp = None
        for link in flow.path:
            for other in link._flows:
                if comp is None:
                    comp = other._comp
                elif other._comp is not comp:
                    comp = _merge(comp, other._comp)
                break
        if comp is None:
            _Component({flow: None})
        else:
            comp.flows[flow] = None  # the highest _seq: order is kept
            flow._comp = comp
        self._flows[flow] = None
        dirty = self._dirty
        for link in flow.path:
            link._flows[flow] = None
            dirty[link] = None
        self._reallocate()
        return flow

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def flows_through(self, link: Link) -> list[Flow]:
        """Snapshot of the in-flight flows whose path crosses ``link``.

        Public accessor so callers (e.g. ``HttpServer.abort_transfers``)
        can find and cancel a link's flows without touching internals;
        returns a list so cancelling while iterating is safe.  Served
        from the link's own insertion-ordered index — O(flows on link),
        not O(all flows).
        """
        return list(link._flows)

    @property
    def bytes_moved(self) -> float:
        """Total bytes delivered across all completed and in-flight flows.

        A pure read: each live flow's progress since its last credit is
        added here, not credited.  Crediting would split the flow's float
        progress, so merely reading this would move completion instants.
        """
        now = self.env._now
        total = self._bytes_moved
        for flow in self._flows:
            rate = flow.rate
            if now > flow._last_credit:
                if math.isinf(rate):
                    total += flow.remaining
                else:
                    total += min(flow.remaining, rate * (now - flow._last_credit))
        return total

    def recompute(self, links: Optional[Iterable[Link]] = None) -> None:
        """Re-run fair sharing after an exogenous capacity change.

        Link capacities are read only when rates are allocated, so fault
        injection (degrading a NIC mid-transfer) must credit progress at
        the old rates and then redistribute.  Pass the changed ``links``
        to confine the recomputation to their components; with no
        argument every component is refreshed (the safe legacy default).
        """
        if links is None:
            self._dirty_all = True
        else:
            dirty = self._dirty
            for link in links:
                dirty[link] = None
        self._reallocate()

    # -- internals ----------------------------------------------------------
    def _cancel(self, flow: Flow) -> None:
        if flow not in self._flows:
            return
        # Credit the flow's whole component (the flow included) at the
        # cancellation instant, before detaching it.
        dirty = self._dirty
        for link in flow.path:
            dirty[link] = None
        affected, _comps = self._closure()
        self._credit(affected)
        self._detach(flow)
        flow.finished_at = self.env.now
        if flow._span is not None:
            flow._span.end(outcome="cancelled", remaining=flow.remaining)
            flow._span = None
        flow.done.fail(TransferAborted(flow.label))
        self._reallocate()

    def _detach(self, flow: Flow) -> None:
        self._flows.pop(flow, None)
        for link in flow.path:
            link._flows.pop(flow, None)
        flow._eta_gen += 1  # invalidate any pending completion-heap entry
        members = flow._comp.flows
        flow._comp = None
        del members[flow]
        if not members:
            return
        # A link still carrying every remaining member keeps them
        # connected; otherwise the departure may have split them.
        n = len(members)
        for link in flow.path:
            if len(link._flows) == n:
                return
        _split(members)

    def _credit(self, flows: Iterable[Flow]) -> None:
        """Credit ``flows`` with bytes moved since each one's last credit.

        Every flow carries its own anchor (``_last_credit``).  A
        reallocation credits every member of each touched component, so
        within a component the anchors advance in lockstep and the float
        arithmetic below is unchanged from the legacy global advance.
        """
        now = self.env._now
        inf = math.inf
        bytes_moved = self._bytes_moved
        for flow in flows:
            dt = now - flow._last_credit
            if dt <= 0:
                if dt < 0:
                    raise SimulationError("simulation time went backwards")
                continue
            flow._last_credit = now
            rate = flow.rate
            remaining = flow.remaining
            if rate == inf:
                moved = remaining
            else:
                # min(remaining, rate * dt), without the call
                moved = rate * dt
                if moved > remaining:
                    moved = remaining
            remaining -= moved
            bytes_moved += moved
            # Snap float dust to done: less than a nanosecond of work
            # left must not schedule another (zero-delay) wakeup.
            if remaining <= _EPS + rate * 1e-9:
                bytes_moved += remaining
                moved += remaining
                remaining = 0.0
            flow.remaining = remaining
            if moved:
                for link in flow.path:
                    link.bytes_carried += moved
        self._bytes_moved = bytes_moved

    def _closure(self) -> tuple[list[Flow], list[list[Flow]]]:
        """Bottleneck components on the dirty link set.

        Two flows are connected when they share a link, and max-min fair
        allocation decomposes exactly along the resulting components: a
        change can only alter rates inside a component containing a
        dirtied link.  Components persist across reallocations (see
        :class:`_Component`), and every flow on a link belongs to the
        same one, so each dirty link's first flow names its component;
        nothing is walked.  Returns ``(affected, components)``: each
        component is a snapshot of its members in start order (the fill
        grouping, even if a completion later splits it), and
        ``affected`` is all of them in start order (the order credits
        are applied).
        """
        comps: dict[_Component, None] = {}
        if self._dirty_all:
            for flow in self._flows:
                comps[flow._comp] = None
        else:
            for link in self._dirty:
                for flow in link._flows:
                    comps[flow._comp] = None
                    break
        groups = [list(comp.flows) for comp in comps]
        if len(groups) == 1:
            return groups[0], groups
        affected = [flow for group in groups for flow in group]
        affected.sort(key=_flow_seq)
        return affected, groups

    def _reallocate(self, _wakeup_sweep: bool = False) -> None:
        """Incremental max-min fair recomputation.

        Credits and refills only the components on the dirty link set,
        completes anything that drained, refreshes those
        flows' completion-heap entries, samples the touched links'
        utilization when tracing, and arranges the next wakeup.
        Untouched bottleneck groups keep their rates.
        """
        self._epoch += 1
        epoch = self._epoch
        affected, comps = self._closure()
        tracing = self.env.tracer.enabled
        if tracing:
            self._touch(affected)
        else:
            self._util_touched = None
        self._dirty.clear()
        self._dirty_all = False
        if not affected and not comps:
            self._schedule_wakeup()
            return
        self._credit(affected)
        if _wakeup_sweep:
            # Wakeup sweeps use the legacy rich predicate: anything with
            # under a nanosecond of work left (or on an infinite-rate
            # path) completes now instead of scheduling a dust wakeup.
            finished = [
                f
                for f in affected
                if f.remaining <= _EPS + f.rate * 1e-9 or math.isinf(f.rate)
            ]
        else:
            finished = [f for f in affected if f.remaining <= _EPS]
        if finished:
            flows = self._flows
            for f in finished:
                if f in flows:
                    self._complete(f)
            if self._epoch != epoch:
                # A completion callback re-entered (started or cancelled
                # a transfer synchronously), so our component snapshots
                # are stale: rebuild membership from the live flow set
                # and redo the fill.  Credits are all at `now` already,
                # so the retry only recomputes rates.
                dirty = self._dirty
                for f in affected:
                    if f in flows:
                        for link in f.path:
                            dirty[link] = None
                if tracing:
                    # The reentrant fill sampled what we had touched;
                    # links drained after it still need their sample.
                    self._touch(affected)
                self._reallocate()
                return
            # A rate must never be assigned to a detached flow.  Every
            # flow left in a snapshot has work left: the loop above
            # completed any that had none.
            comps = [[f for f in comp if f in flows] for comp in comps]
            affected = [f for f in affected if f in flows]
        for comp in comps:
            if comp:
                self._fill(comp)
        # Refresh completion etas for everything we credited.
        now = self.env._now
        heap = self._eta_heap
        for f in affected:
            f._eta_gen += 1
            rate = f.rate
            if rate > _EPS:
                rel = f.remaining / rate
                if rel < 0.0:
                    rel = 0.0
                heapq.heappush(heap, (now + rel, f._seq, f._eta_gen, f, rel, now))
        # A credited flow still live means its component was refilled:
        # sample then, exactly at the fills of the dirty components.
        if affected and tracing:
            self._record_utilization()
        self._schedule_wakeup()

    def _fill(self, active: list[Flow]) -> None:
        """Max-min water fill of one bottleneck component.

        Every flow starts at 0.0 and each round raises all unfrozen
        flows by the same increment, so they share one float, ``level``.
        A flow gets a rate of its own only when it freezes: at its
        ``max_rate`` once ``level >= max_rate - _EPS``, or at ``level``
        when a link on its path saturates.  A round's increment is the
        smallest of every loaded link's ``headroom / n`` (``n`` unfrozen
        flows on it) and the lowest unfrozen cap minus ``level``.  IEEE
        rounding is monotone, so that last term equals the smallest
        per-flow ``max_rate - level``; each link's headroom still drops
        by ``inc * n`` per round.  The fill is therefore bit-identical to
        raising every flow's own rate round by round (the test suite
        keeps that progressive fill as its oracle).  A round that
        freezes every flow left ends the fill without updating the
        per-link counts.

        ``active`` is the live part of one component snapshot, in
        flow-start order.  It holds every live flow on every link its
        members cross, even after a completion has split the component,
        so a link's unfrozen count starts at ``len(link._flows)``.  A
        link listed twice on one path carries the flow once, matching
        ``Link._flows``.  All working collections are insertion-ordered
        dicts, never hash sets, so nothing downstream can pick up
        hash-seed jitter.
        """
        unfrozen = dict.fromkeys(active)
        headroom: dict[Link, float] = {}
        count: dict[Link, int] = {}  # loaded links only: every n > 0
        for f in active:
            for link in f.path:
                if link in count or link.capacity is None:
                    continue
                count[link] = len(link._flows)
                headroom[link] = float(link.capacity)
        level = 0.0
        while True:
            # Smallest equal increment that saturates a link or caps a flow.
            inc = math.inf
            for link, n in count.items():
                share = headroom[link] / n
                if share < inc:
                    inc = share
            low = math.inf  # lowest max_rate among unfrozen flows
            for f in unfrozen:
                cap = f.max_rate
                if cap is not None and cap < low:
                    low = cap
            if low - level < inc:
                inc = low - level
            if inc == math.inf:
                # Every remaining flow traverses only unconstrained links
                # and has no cap: give them an effectively unbounded rate.
                for f in unfrozen:
                    f.rate = math.inf
                return
            if inc < 0.0:
                inc = 0.0
            level += inc
            frozen: dict[Flow, None] = {}
            if level >= low - _EPS:  # else no cap can have been reached
                for f in unfrozen:
                    cap = f.max_rate
                    if cap is not None and level >= cap - _EPS:
                        f.rate = cap
                        frozen[f] = None
            for link, n in count.items():
                left = headroom[link] - inc * n
                headroom[link] = left
                if left <= _EPS:
                    for g in link._flows:
                        if g in unfrozen and g not in frozen:
                            g.rate = level
                            frozen[g] = None
            if not frozen:
                # Numerical corner: freeze everything to guarantee progress.
                for f in unfrozen:
                    f.rate = level
                return
            if len(frozen) == len(unfrozen):
                return
            for f in frozen:
                del unfrozen[f]
                for link in dict.fromkeys(f.path):
                    n = count.get(link)
                    if n == 1:
                        del count[link]
                    elif n is not None:
                        count[link] = n - 1

    def _touch(self, flows: list[Flow]) -> None:
        """Queue the links whose utilization a reallocation may change.

        Those are the dirty links plus the path of every flow in
        ``flows`` (the flows it credits); :meth:`_record_utilization`
        samples them at the next fill.  While tracing is off nothing is
        queued, so the first traced reallocation after it queues every
        link the sampler covers.
        """
        touched = self._util_touched
        if touched is None:
            touched = self._util_touched = dict.fromkeys(self._util_traced)
            for f in self._flows:
                for link in f.path:
                    touched[link] = None
        touched.update(self._dirty)
        for f in flows:
            for link in f.path:
                touched[link] = None

    def _record_utilization(self) -> None:
        """Sample the gauge of each link touched since the last sample.

        A link is sampled when it has a capacity and carries a live
        flow, or was sampled before (so a drained link drops back to 0).
        An untouched link has the flows, rates and capacity it had at
        its last sample, so its utilization has not changed and the
        gauge would skip it anyway.
        """
        metrics = self.env.tracer.metrics
        traced = self._util_traced
        for link in self._util_touched:
            if link in traced or (link._flows and link.capacity is not None):
                util = link.utilization()
                if traced.get(link) != util:
                    traced[link] = util
                    metrics.gauge(f"link.util/{link.name}", util)
        self._util_touched.clear()

    def _complete(self, flow: Flow) -> None:
        self._detach(flow)
        flow.remaining = 0.0
        flow.rate = 0.0
        flow.finished_at = self.env.now
        if flow._span is not None:
            flow._span.end(outcome="done")
            flow._span = None
        flow.done.succeed(flow)

    def _schedule_wakeup(self) -> None:
        """Arrange to wake at the earliest flow-completion instant.

        Completion instants live in a lazy min-heap: a flow's entry is
        refreshed (generation-bumped) whenever its component is
        recomputed, so the heap top — after skipping superseded
        generations — is the next completion across all components,
        without the legacy O(flows) scan.

        Two further mechanisms keep recompute() storms (fault flapping)
        from growing the event heap without bound, where the old
        clear-the-callbacks approach leaked one dead Timeout per call:

        * a new Timeout is pushed only when the needed wake time is
          *earlier* than the pending one — an early (spurious) wakeup
          just recomputes and reschedules;
        * a superseded wakeup is cancelled through
          :meth:`Environment.cancel`, whose lazy-deletion-with-compaction
          keeps dead entries a bounded fraction of the queue.  The
          generation counter is belt-and-braces against a wakeup caught
          mid-dispatch, where cancellation can no longer intercept it.
        """
        heap = self._eta_heap
        while heap and heap[0][2] != heap[0][3]._eta_gen:
            heapq.heappop(heap)
        if len(heap) > 64 and len(heap) > 4 * (len(self._flows) + 1):
            live = [entry for entry in heap if entry[2] == entry[3]._eta_gen]
            heap[:] = live
            heapq.heapify(heap)
        if not heap:
            # Nothing can complete; let any pending wakeup fire spuriously.
            return
        eta, _seq, _gen, _flow, rel, anchor = heap[0]
        due = eta
        if (
            self._wakeup is not None
            and self._wakeup._scheduled
            and self._wakeup_time <= due * (1 + 1e-12) + 1e-9
        ):
            return
        if self._wakeup is not None and self._wakeup._scheduled:
            self.env.cancel(self._wakeup)
        self._wakeup_gen += 1
        gen = self._wakeup_gen
        now = self.env._now
        if anchor == now:
            # The top entry was anchored at this very instant; reuse its
            # relative delay so the scheduled time is bit-identical to
            # computing remaining/rate directly.
            delay = rel
        else:
            delay = eta - now
            if delay < 0.0:
                delay = 0.0
        wake = self.env.timeout(delay)
        self._wakeup = wake
        self._wakeup_time = due
        wake.callbacks.append(lambda _event, gen=gen: self._on_wakeup(gen))

    def _on_wakeup(self, gen: int) -> None:
        if gen != self._wakeup_gen:
            return  # superseded by an earlier wakeup; nothing to do
        self._wakeup = None
        self._wakeup_time = math.inf
        now = self.env._now
        heap = self._eta_heap
        dirty = self._dirty
        candidates = 0
        while heap:
            eta, _seq, egen, flow, _rel, _anchor = heap[0]
            if egen != flow._eta_gen:
                heapq.heappop(heap)
                continue
            # Candidate iff the dust predicate can pass once credited:
            # remaining - rate*(now - anchor) <= _EPS + rate*1e-9, i.e.
            # eta <= now + 1e-9 + _EPS/rate (rate == inf gives eta == anchor).
            if eta > now + 1e-9 + _EPS / flow.rate:
                break
            heapq.heappop(heap)
            flow._eta_gen += 1
            candidates += 1
            for link in flow.path:
                dirty[link] = None
        if candidates:
            self._reallocate(_wakeup_sweep=True)
            return
        # Spurious early wake (a kept, slightly-early timer): mirror the
        # legacy engine — credit everything, complete any dust, and
        # reschedule from the freshly split remainders.
        flows = list(self._flows)
        self._credit(flows)
        finished = [
            f
            for f in flows
            if f.remaining <= _EPS + f.rate * 1e-9 or math.isinf(f.rate)
        ]
        if finished:
            for f in finished:
                for link in f.path:
                    dirty[link] = None
            self._reallocate(_wakeup_sweep=True)
            return
        for f in flows:
            f._eta_gen += 1
            rate = f.rate
            if rate > _EPS:
                rel = f.remaining / rate
                if rel < 0.0:
                    rel = 0.0
                heapq.heappush(heap, (now + rel, f._seq, f._eta_gen, f, rel, now))
        self._schedule_wakeup()
