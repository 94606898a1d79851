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
10k-node scale.  The heap holds one entry per component, keyed by its
earliest member: a refill pushes one entry, not one per member, and a
wakeup pops whole components in the order, and up to the same flow,
that one entry per flow would give.

Most components keep a **shape**: one cap shared by every member and,
for each path position, either the one link every member crosses there
or *private* links (each member crosses its own, which carries only
that member, all of one capacity).  Table I's installs have one: each
crosses the install server's shared uplink, then its own NIC.  A
component is born with its first flow's path as its shape, a join keeps
it after an O(path) check of the joining flow, a departure cannot break
it, and a merge, a split or a capacity change (:meth:`recompute`)
leaves the component without one.  The water fill's first round treats
every member of a shaped component alike and freezes them all, so its
refill is one pass: the rate, computed once from the first member's
path, is the float the rounds would give, and the same loop re-keys the
completion heap.  Components without a shape run the rounds.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
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
        # Explicit loop and clamp, no genexpr, isinf or min calls:
        # monitoring agents call this for every NIC on every sample tick.
        inf = math.inf
        used = 0.0
        for f in self._flows:
            rate = f.rate
            if rate != inf:
                used += rate
        util = used / self.capacity
        return 1.0 if util > 1.0 else util

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "inf" if self.capacity is None else f"{self.capacity:.0f}B/s"
        return f"Link({self.name!r}, {cap}, {len(self._flows)} flows)"


class Flow:
    """An in-flight transfer of ``size`` bytes along ``path``.

    ``max_rate`` caps the flow below its fair share — this models a
    receiver that cannot consume faster than it installs packages.
    ``done`` is an engine Event that triggers, with no value, when the
    last byte lands.
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
        "_span",
        "_seq",
        "_last_credit",
        "_eta",
        "_comp",
        "__weakref__",
    )

    def __init__(
        self,
        network: "FlowNetwork",
        path: tuple[Link, ...],
        size: float,
        max_rate: Optional[float],
        label: str,
    ):
        env = network.env
        self.network = network
        self.path = path
        self.size = float(size)
        self.remaining = float(size)
        self.max_rate = max_rate
        self.rate = 0.0
        self.done: Event = Event(env)
        self.started_at = env._now
        self.finished_at: Optional[float] = None
        self.label = label
        self._span = None  # telemetry span, when tracing is enabled
        #: start order, used to sort component members deterministically
        self._seq = next(network._flow_seq_counter)
        #: per-flow credit anchor: the instant ``remaining`` was last true
        self._last_credit = env._now
        #: completion instant at its component's last refresh (inf while
        #: its rate is below ``_EPS``: then it has no completion in view)
        self._eta = math.inf
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
    ``_token`` names the component's one live completion-heap entry
    (``None`` without one); a refresh replaces it, and a departure, a
    merge or a split clears it.

    ``shape``, unless ``None``, holds one entry per path position: the
    link every member crosses there, or ``None`` where the position is
    *private*, each member crossing its own link, which carries only
    that member and has the capacity the first member's link there has.
    Every member then has ``cap`` as its ``max_rate`` and a path of
    ``len(shape)`` links.  A component born with one flow takes that
    flow's path as its shape; a join keeps it or drops it
    (:func:`_keep_shape`); a departure leaves it true; a merge or a split
    starts without one, and :meth:`FlowNetwork.recompute` drops it.

    ``misfit`` is the member whose join dropped the shape, or the one a
    later attempt to rebuild it stopped at; once it has left, the next
    refill rebuilds the shape from the members (:func:`_regain_shape`).
    It is ``None`` while there is a shape, and in a component a merge, a
    split or a capacity change left without one: those are not rebuilt.
    """

    __slots__ = ("flows", "_token", "shape", "cap", "misfit")

    def __init__(
        self,
        flows: dict[Flow, None],
        shape: Optional[list[Optional[Link]]] = None,
        cap: Optional[float] = None,
    ):
        self.flows = flows
        self._token: Optional[int] = None
        self.shape = shape
        self.cap = cap
        self.misfit: Optional[Flow] = None
        for flow in flows:
            flow._comp = self


def _keep_shape(comp: _Component, flow: Flow) -> bool:
    """Whether ``comp``'s shape holds with ``flow`` a member, turning
    positions private as it goes; on ``False`` the caller drops it.

    ``flow`` is already a member and on its links, so one pass over its
    path decides.  At a shared position it must cross the shared link.
    Anywhere else its link must carry only ``flow`` and have the first
    member's capacity there; a shared link it does not cross turns
    private only while that link carries one member, which happens only
    when ``flow`` is the second member and does not cross it elsewhere.
    """
    shape = comp.shape
    path = flow.path
    if flow.max_rate != comp.cap or len(path) != len(shape):
        return False
    first = next(iter(comp.flows)).path
    for i, link in enumerate(path):
        shared = shape[i]
        if link is shared:
            continue
        if (
            len(link._flows) != 1
            or link.capacity != first[i].capacity
            or (shared is not None and len(shared._flows) != 1)
        ):
            return False
        shape[i] = None
    return True


def _regain_shape(comp: _Component) -> None:
    """Rebuild ``comp``'s shape now that its misfit has left.

    The first member's path is the shape, and every later member joins
    it as in :func:`_keep_shape`, so the shape holds exactly when the
    members, as they stand, would have kept one.  Otherwise the member
    that did not fit becomes the misfit to wait for.
    """
    members = iter(comp.flows)
    first = next(members)
    comp.shape, comp.cap, comp.misfit = list(first.path), first.max_rate, None
    for flow in members:
        if not _keep_shape(comp, flow):
            comp.shape, comp.misfit = None, flow
            return


def _merge(a: _Component, b: _Component) -> _Component:
    """One component, without a shape, for the members of two that a new
    flow bridges."""
    a._token = b._token = None
    return _Component(dict.fromkeys(sorted([*a.flows, *b.flows], key=_flow_seq)))


def _split(members: dict[Flow, None]) -> None:
    """Re-walk ``members`` into the components they now form, each
    without a shape.

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


def _first_failing(comp: _Component, now: float) -> Optional[tuple[float, int]]:
    """``(eta, seq)`` of the earliest member of ``comp`` that a wakeup at
    ``now`` cannot finish, or ``None`` when it can finish all of them.

    A member can finish when the dust test can pass once it is credited:
    ``remaining - rate * (now - anchor) <= _EPS + rate * 1e-9``, that is
    ``eta <= now + 1e-9 + _EPS / rate`` (``rate == inf`` gives
    ``eta == anchor``).  A member with no completion in view (``eta`` is
    inf) is not a candidate at all.
    """
    first = None
    for f in comp.flows:
        eta = f._eta
        if eta != math.inf and eta > now + 1e-9 + _EPS / f.rate:
            key = (eta, f._seq)
            if first is None or key < first:
                first = key
    return first


class TransferAborted(Exception):
    """The flow was cancelled before completion (e.g. node power-cycled)."""


class FlowNetwork:
    """Tracks active flows and keeps their max-min fair rates current.

    Every live flow points at its bottleneck component, kept current by
    :meth:`transfer` and :meth:`_detach`, and a change recomputes only
    the components on the links it touches.  Each refill gives its
    component one completion-heap entry (:meth:`_fill`), which a wakeup
    pops (:meth:`_pop_due`).  The test suite keeps a full-recompute
    subclass as a differential oracle: it finds every component from
    the live flow set alone by breadth-first search and refills all of
    them on every change, with a per-flow progressive fill, an
    all-links utilization sampler and a completion heap of one entry
    per flow.  The two must produce bit-identical rates, completion
    times and ``link.util/*`` gauge series.
    """

    __slots__ = (
        "env",
        "_flows",
        "_flow_seq_counter",
        "_dirty",
        "_eta_heap",
        "_tokens",
        "_wakeup",
        "_wakeup_time",
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
        # Lazy min-heap of (eta, seq, token, component, flow, rel,
        # anchor): one entry per component, keyed by its earliest member
        # (`flow`, start order `seq`) and carrying that member's delay
        # `rel` from `anchor`, the refresh instant.  An entry whose token
        # is no longer its component's is skipped at pop time.
        self._eta_heap: list[
            tuple[float, int, int, _Component, Flow, float, float]
        ] = []
        self._tokens = itertools.count()
        # The pending wakeup Timeout and the completion instant it is for.
        self._wakeup: Optional[Event] = None
        self._wakeup_time = math.inf
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
        path = tuple(path)
        if not path:
            raise ValueError("transfer path must cross at least one link")
        # Negated comparisons, so that NaN is rejected too.
        if not size >= 0:
            raise ValueError(f"transfer size must be non-negative, got {size!r}")
        if max_rate is not None and not max_rate > 0:
            raise ValueError(f"max_rate must be positive, got {max_rate!r}")
        flow = Flow(self, path, size, max_rate, label)
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
            flow.finished_at = self.env._now
            flow.done.succeed()
            if flow._span is not None:
                flow._span.end(outcome="done")
                flow._span = None
            return flow
        # Join the components the path touches.  All flows on a link
        # share one component, so the link's first flow names it.
        comp = None
        for link in path:
            for other in link._flows:
                if comp is None:
                    comp = other._comp
                elif other._comp is not comp:
                    comp = _merge(comp, other._comp)
                break
        if comp is None:
            # Born alone: its own path is its shape.
            _Component({flow: None}, list(path), max_rate)
        else:
            comp.flows[flow] = None  # the highest _seq: order is kept
            flow._comp = comp
        self._flows[flow] = None
        dirty = self._dirty
        for link in path:
            link._flows[flow] = None
            dirty[link] = None
        if comp is not None and comp.shape is not None and not _keep_shape(comp, flow):
            comp.shape, comp.misfit = None, flow
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

    def recompute(self, links: Iterable[Link]) -> None:
        """Re-run fair sharing after an exogenous capacity change.

        Link capacities are read only when rates are allocated, so fault
        injection (degrading a NIC mid-transfer) must credit progress at
        the old rates and then redistribute.  ``links`` are the changed
        links; only their components are recomputed, and they lose their
        shapes (a shape records capacities).  Every capacity change made
        while flows are live must come through here.
        """
        dirty = self._dirty
        for link in links:
            dirty[link] = None
            for flow in link._flows:
                flow._comp.shape = None
                break
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
        comp = flow._comp
        # Its heap entry may be keyed by this flow.  Whatever is left of
        # the component is refreshed by the reallocation that follows.
        comp._token = None
        members = comp.flows
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

    def _credit(self, flows: Iterable[Flow], sweep: bool = False) -> list[Flow]:
        """Credit ``flows`` with bytes moved since each one's last credit.

        Every flow carries its own anchor (``_last_credit``).  A
        reallocation credits every member of each touched component, so
        within a component the anchors advance in lockstep and the float
        arithmetic below is unchanged from the legacy global advance.

        Returns the flows that are done, in the order of ``flows``: those
        whose credit leaves less than a nanosecond of work (snapped to
        zero), and those already credited at this instant that have none
        left.  A wakeup ``sweep`` gives those the nanosecond too, which
        also finishes an infinite-rate flow (``_EPS + inf``).
        """
        now = self.env._now
        inf = math.inf
        bytes_moved = self._bytes_moved
        finished = []
        for flow in flows:
            dt = now - flow._last_credit
            rate = flow.rate
            remaining = flow.remaining
            if dt <= 0:
                if dt < 0:
                    raise SimulationError("simulation time went backwards")
                if remaining <= (_EPS + rate * 1e-9 if sweep else _EPS):
                    finished.append(flow)
                continue
            flow._last_credit = now
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
                finished.append(flow)
            flow.remaining = remaining
            if moved:
                for link in flow.path:
                    link.bytes_carried += moved
        self._bytes_moved = bytes_moved
        return finished

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

        Credits and refills only the components on the dirty link set
        (each refill re-keys its component's completion-heap entry),
        completes anything that drained, samples the touched links'
        utilization when tracing, and arranges the next wakeup.  Untouched
        bottleneck groups keep their rates.  A wakeup sweep finishes
        anything within a nanosecond of done (see :meth:`_credit`).
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
        if not affected and not comps:
            self._schedule_wakeup()
            return
        finished = self._credit(affected, _wakeup_sweep)
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
            # A rate must never be assigned to a detached flow: the loop
            # above completed every finished flow, so drop each one from
            # the snapshot (`affected` may be its one group itself).
            for f in finished:
                affected.remove(f)
                for comp in comps:
                    if comp is not affected and f in comp:
                        comp.remove(f)
                        break
        for comp in comps:
            if comp:
                self._fill(comp)
        # A credited flow still live means its component was refilled:
        # sample then, exactly at the dirty components' fills.
        if affected and tracing:
            self._record_utilization()
        self._schedule_wakeup()

    def _refresh(self, flows: list[Flow]) -> None:
        """Re-key the completion heap for ``flows``, just credited and filled.

        ``flows`` are whole live components in start order.  Each member
        keeps its completion instant in ``_eta``, and each component gets
        one heap entry, keyed by its member with the smallest
        ``(eta, seq)``: the instant the per-flow entries' minimum would
        give, with that member's own ``rel`` and ``anchor``.  A
        component whose every rate is below ``_EPS`` gets none.  A
        shaped component's refill computes the same entry in its own
        pass (:meth:`_fill`).
        """
        first = flows[0]._comp
        if len(first.flows) == len(flows):
            comps: Iterable[_Component] = (first,)
        else:
            comps = dict.fromkeys([f._comp for f in flows])
        now = self.env._now
        inf = math.inf
        heap = self._eta_heap
        for comp in comps:
            key = None
            key_eta = inf
            for f in comp.flows:
                rate = f.rate
                if rate > _EPS:
                    rel = f.remaining / rate
                    eta = now + rel
                    if eta < key_eta:  # start order breaks ties
                        key, key_eta, key_rel = f, eta, rel
                    f._eta = eta
                else:
                    f._eta = inf
            if key is None:
                comp._token = None
                continue
            token = next(self._tokens)
            comp._token = token
            heappush(heap, (key_eta, key._seq, token, comp, key, key_rel, now))

    def _fill(self, active: list[Flow]) -> None:
        """Max-min water fill of one bottleneck component, then its
        completion-heap entry.

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
        per-link counts, and :meth:`_refresh` then re-keys the heap.

        A *shaped* component skips the rounds and is refilled in one
        pass.  Every member sees, position by position, a link of the
        same capacity and flow count (the shared link, or a private one
        carrying only itself), so round 1 raises every member by the
        smallest ``capacity / len(link._flows)`` on the first member's
        path and the cap, to ``0.0 + inc == inc``.  Then every member
        reaches the cap, or every member crosses a link that saturates,
        or none does and the numerical corner freezes them all at
        ``level`` (Table I's 100 Mbit links at 37 or 45 flows are that
        corner: ``C - (C / k) * k`` exceeds ``_EPS``).  So the rounds end
        with every member at the cap when ``inc >= cap - _EPS`` and at
        ``inc`` otherwise (``inf`` when nothing bounds it), and the pass
        assigns exactly that float; the same loop computes each member's
        ``rel``, ``eta`` and the ``(eta, seq)`` key as :meth:`_refresh`
        does.

        ``active`` is the live part of one component snapshot, in
        flow-start order; a shaped component never splits, so for one
        it is every member.  It holds every live flow on every link its
        members cross, even after a completion has split the component,
        so a link's unfrozen count starts at ``len(link._flows)``.  A
        link listed twice on one path carries the flow once, matching
        ``Link._flows``.  All working collections are insertion-ordered
        dicts, never hash sets, so nothing downstream can pick up
        hash-seed jitter.
        """
        first = active[0]
        comp = first._comp
        shape = comp.shape
        if shape is None and comp.misfit is not None and comp.misfit._comp is not comp:
            _regain_shape(comp)
            shape = comp.shape
        if shape is not None:
            cap = comp.cap
            inc = math.inf if cap is None else cap
            for link in first.path:
                capacity = link.capacity
                if capacity is not None:
                    share = float(capacity) / len(link._flows)
                    if share < inc:
                        inc = share
            if cap is not None and inc >= cap - _EPS:
                inc = cap
            now = self.env._now
            key = None
            key_eta = math.inf
            if inc > _EPS:
                for f in active:
                    f.rate = inc
                    rel = f.remaining / inc
                    eta = now + rel
                    if eta < key_eta:  # start order breaks ties
                        key, key_eta, key_rel = f, eta, rel
                    f._eta = eta
            else:
                for f in active:
                    f.rate = inc
                    f._eta = math.inf
            if key is None:
                comp._token = None
                return
            token = next(self._tokens)
            comp._token = token
            heappush(
                self._eta_heap, (key_eta, key._seq, token, comp, key, key_rel, now)
            )
            return
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
                break
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
                break
            if len(frozen) == len(unfrozen):
                break
            for f in frozen:
                del unfrozen[f]
                for link in dict.fromkeys(f.path):
                    n = count.get(link)
                    if n == 1:
                        del count[link]
                    elif n is not None:
                        count[link] = n - 1
        self._refresh(active)

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
        if flow.rate == math.inf:
            # Its bytes land in no time, so a credit at the instant its
            # rate became infinite moved none of them: count them here.
            moved = flow.remaining
            if moved:
                self._bytes_moved += moved
                for link in flow.path:
                    link.bytes_carried += moved
        flow.remaining = 0.0
        flow.rate = 0.0
        flow.finished_at = self.env._now
        if flow._span is not None:
            flow._span.end(outcome="done")
            flow._span = None
        # No value: the flow holds its event, so an event holding the
        # flow would make each finished transfer a cycle for the
        # collector.
        flow.done.succeed()

    def _next_completion(self) -> Optional[tuple]:
        """The live completion-heap entry due first, or ``None``.

        Entries the components have since re-keyed or dropped are
        popped on the way, and the heap is compacted once they make up
        most of it.  Any entry's first item is its completion instant
        and its last two are the ``rel`` and ``anchor`` it was computed
        from.
        """
        heap = self._eta_heap
        while heap and heap[0][3]._token != heap[0][2]:
            heappop(heap)
        if len(heap) > 64 and len(heap) > 4 * (len(self._flows) + 1):
            heap[:] = [entry for entry in heap if entry[3]._token == entry[2]]
            heapify(heap)
        return heap[0] if heap else None

    def _schedule_wakeup(self) -> None:
        """Arrange to wake at the earliest flow-completion instant.

        Completion instants live in a lazy min-heap with one entry per
        component, keyed by its earliest member and re-keyed whenever the
        component is refilled, so the heap top, after skipping re-keyed
        entries, is the next completion across all components without an
        O(flows) scan.

        Two further rules keep recompute() storms (fault flapping) from
        growing the event heap without bound, where the old
        clear-the-callbacks approach leaked one dead Timeout per call:

        * a pending wakeup is kept when it is not later than the needed
          instant; an early (spurious) wakeup just recomputes and
          reschedules;
        * a later one is cancelled through :meth:`Environment.cancel`,
          whose lazy-deletion-with-compaction keeps dead entries a
          bounded fraction of the queue, and a new Timeout is pushed.
        """
        entry = self._next_completion()
        if entry is None:
            # Nothing can complete; let any pending wakeup fire spuriously.
            return
        due = entry[0]
        wakeup = self._wakeup
        if wakeup is not None:
            if self._wakeup_time <= due:
                return
            self.env.cancel(wakeup)
        now = self.env._now
        if entry[-1] == now:
            # The top entry was anchored at this very instant; reuse its
            # relative delay so the scheduled time is bit-identical to
            # computing remaining/rate directly.
            delay = entry[-2]
        else:
            delay = due - now
            if delay < 0.0:
                delay = 0.0
        wakeup = self.env.timeout(delay)
        wakeup.callbacks.append(self._on_wakeup)
        self._wakeup = wakeup
        self._wakeup_time = due

    def _pop_due(self, now: float) -> bool:
        """Pop the components that have a member due at ``now``.

        A flow is due when :func:`_first_failing`'s test passes for it.
        Flow by flow, the candidates are every flow before the first one
        in ``(eta, seq)`` order that fails; a component is dirtied when
        its earliest member, its heap key, is one of them.  So entries
        are popped in key order, and the loop stops before one whose key
        member fails, or whose key lies beyond the first failing member
        of a component already popped (computed only when a further
        entry needs it).  Returns whether anything was popped.
        """
        heap = self._eta_heap
        dirty = self._dirty
        n_popped = 0
        popped = None  # last popped component, not yet folded into `stop`
        stop = None  # (eta, seq) of the first failing member popped so far
        while heap:
            eta, seq, token, comp, flow, _rel, _anchor = heap[0]
            if comp._token != token:
                heappop(heap)
                continue
            if popped is not None:
                bound = _first_failing(popped, now)
                if bound is not None and (stop is None or bound < stop):
                    stop = bound
                popped = None
            if stop is not None and (eta, seq) >= stop:
                break
            if eta > now + 1e-9 + _EPS / flow.rate:
                break
            heappop(heap)
            # Any link of the component names it in the next closure.
            dirty[flow.path[0]] = None
            popped = comp
            n_popped += 1
        return n_popped > 0

    def _on_wakeup(self, _event: Event) -> None:
        self._wakeup = None
        if self._pop_due(self.env._now):
            self._reallocate(_wakeup_sweep=True)
            return
        # Spurious early wake (a kept, slightly-early timer): mirror the
        # legacy engine — credit everything, complete any dust, and
        # reschedule from the freshly split remainders.
        flows = list(self._flows)
        finished = self._credit(flows, sweep=True)
        if finished:
            dirty = self._dirty
            for f in finished:
                for link in f.path:
                    dirty[link] = None
            self._reallocate(_wakeup_sweep=True)
            return
        if flows:
            self._refresh(flows)
        self._schedule_wakeup()
