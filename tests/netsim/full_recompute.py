"""The full-recompute fair-share oracle for differential tests.

:class:`FullRecomputeNetwork` refills *every* bottleneck component on
every change, where :class:`~repro.netsim.FlowNetwork` refills only the
components a change touches.  Untouched components are refilled but not
credited, so both networks credit at the exact same instants and must
agree bit for bit.

It finds the components from scratch: a breadth-first walk over the
live flows and their links, ignoring the components the network keeps
alive across reallocations, and never reads a component's shape.  It
also keeps the reference versions of the per-reallocation passes that
the network makes incremental: a progressive fill that raises each
flow's own rate round by round and counts each link's flows itself, on
every component, shaped or not; a utilization sampler that re-reads
every link any flow has crossed on every fill; and a completion heap
with one entry per flow, keyed from the flow's own credit anchor, which
a wakeup pops flow by flow up to the first one that cannot finish (the
network keeps one entry per component and stops on the same flow).
"""

import heapq
import math

from repro.netsim import FlowNetwork
from repro.netsim.flows import _EPS, Flow, Link, _flow_seq


def walk_components(seeds, seen_flows, seen_links):
    """Yield the component of each seed not yet seen, in start order.

    Breadth-first over shared links, from the live flows alone.  The
    sets carry what earlier calls saw; they are membership filters
    only, never iterated.
    """
    for seed in seeds:
        if seed in seen_flows:
            continue
        seen_flows.add(seed)
        comp = [seed]
        # The loop also visits the flows appended to ``comp`` as it goes.
        for flow in comp:
            for link in flow.path:
                if link in seen_links:
                    continue
                seen_links.add(link)
                for other in link._flows:
                    if other not in seen_flows:
                        seen_flows.add(other)
                        comp.append(other)
        comp.sort(key=_flow_seq)
        yield comp


class FullRecomputeNetwork(FlowNetwork):
    __slots__ = ("_entry",)

    def __init__(self, env):
        super().__init__(env)
        #: each flow's live completion-heap entry
        self._entry: dict[Flow, tuple] = {}

    def _detach(self, flow: Flow) -> None:
        super()._detach(flow)
        self._entry.pop(flow, None)

    def _refresh(self, flows: list[Flow]) -> None:
        """One ``(eta, seq, n, flow, rel, anchor)`` entry per flow.

        Each entry is keyed from the flow's own credit anchor, so
        re-keying a flow whose component was refilled but not credited
        (see :meth:`_fill`) gives the entry it already has.
        """
        for f in flows:
            self._entry.pop(f, None)
            rate = f.rate
            if rate > _EPS:
                anchor = f._last_credit
                rel = f.remaining / rate
                if rel < 0.0:
                    rel = 0.0
                entry = (anchor + rel, f._seq, next(self._tokens), f, rel, anchor)
                self._entry[f] = entry
                heapq.heappush(self._eta_heap, entry)

    def _next_completion(self):
        heap = self._eta_heap
        while heap and self._entry.get(heap[0][3]) is not heap[0]:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def _pop_due(self, now: float) -> bool:
        """Pop every flow due at ``now`` up to the first one that is not."""
        candidates = 0
        while (entry := self._next_completion()) is not None:
            eta, _seq, _n, flow, _rel, _anchor = entry
            # Candidate iff the dust test can pass once credited:
            # remaining - rate*(now - anchor) <= _EPS + rate*1e-9.
            if eta > now + 1e-9 + _EPS / flow.rate:
                break
            heapq.heappop(self._eta_heap)
            del self._entry[flow]
            candidates += 1
            for link in flow.path:
                self._dirty[link] = None
        return candidates > 0

    def _closure(self):
        """Every bottleneck component, walked from the live flow set.

        ``affected`` is the dirty closure in start order: every flow
        transitively sharing a link with a dirty link's flows.
        ``comps`` holds its components and then every other one, each
        in start order.
        """
        seen_flows, seen_links = set(), set()
        seeds = [flow for link in self._dirty for flow in link._flows]
        comps = list(walk_components(seeds, seen_flows, seen_links))
        affected = sorted((flow for comp in comps for flow in comp), key=_flow_seq)
        comps += walk_components(self._flows, seen_flows, seen_links)
        return affected, comps

    def _fill(self, active: list[Flow]) -> None:
        """Progressive filling of one bottleneck component, then its
        completion-heap entries (:meth:`_refresh`).

        All unconstrained flows are raised in lockstep until a link
        saturates or a flow hits its own ``max_rate``; those flows
        freeze and the rest keep filling.  ``active`` is one whole
        component in flow-start order, so this arithmetic is
        bit-identical to the legacy global fill run over a network in
        which these are the only flows.

        Per-link unfrozen-flow counts are maintained incrementally:
        O(rounds * (flows + links)) instead of recounting every link's
        flow set each round.  All working collections are
        insertion-ordered dicts-as-sets, never hash sets: every
        iteration below happens in the same order on every run, so
        nothing downstream can pick up hash-seed jitter.
        """
        rate = {f: 0.0 for f in active}
        active_set = set(active)  # membership tests only, never iterated
        unfrozen = dict.fromkeys(active)
        constrained = dict.fromkeys(
            link for f in active for link in f.path if link.capacity is not None
        )
        headroom = {link: float(link.capacity) for link in constrained}
        count = {
            link: sum(1 for f in link._flows if f in active_set)
            for link in constrained
        }

        def freeze(flow: Flow) -> None:
            # A path is a set of resources: a link listed twice (loopback
            # quirk) still carries the flow once, matching Link._flows.
            for link in dict.fromkeys(flow.path):
                if link in count:
                    count[link] -= 1

        while unfrozen:
            # Smallest equal increment that saturates a link or caps a flow.
            inc = math.inf
            for link, n in count.items():
                if n > 0:
                    inc = min(inc, headroom[link] / n)
            for f in unfrozen:
                if f.max_rate is not None:
                    inc = min(inc, f.max_rate - rate[f])
            if math.isinf(inc):
                # Every remaining flow traverses only unconstrained links
                # and has no cap: give them an effectively unbounded rate.
                for f in unfrozen:
                    rate[f] = math.inf
                break
            inc = max(inc, 0.0)
            newly_frozen: dict[Flow, None] = {}
            for f in unfrozen:
                rate[f] += inc
                if f.max_rate is not None and rate[f] >= f.max_rate - _EPS:
                    rate[f] = f.max_rate
                    newly_frozen[f] = None
            for link, n in count.items():
                headroom[link] -= inc * n
                if headroom[link] <= _EPS and n > 0:
                    for f in link._flows:
                        if f in unfrozen:
                            newly_frozen[f] = None
            if not newly_frozen:
                # Numerical corner: freeze everything to guarantee progress.
                newly_frozen = dict(unfrozen)
            for f in newly_frozen:
                if f in unfrozen:
                    freeze(f)
                    del unfrozen[f]

        for f in active:
            f.rate = rate[f]
        self._refresh(active)

    def _record_utilization(self) -> None:
        """Sample every constrained link's utilization gauge (on change)."""
        metrics = self.env.tracer.metrics
        links: dict[Link, None] = {}
        for f in self._flows:
            for link in f.path:
                if link.capacity is not None:
                    links[link] = None
        # Links that drained since the last sample must drop back to 0.
        for link in list(self._util_traced):
            links.setdefault(link, None)
        for link in links:
            util = link.utilization()
            if self._util_traced.get(link) != util:
                self._util_traced[link] = util
                metrics.gauge(f"link.util/{link.name}", util)
