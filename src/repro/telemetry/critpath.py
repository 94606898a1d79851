"""Critical-path analysis over a span DAG: why was this run slow?

The tracer gives every span a deterministic ``span_id``/``parent_id``/
``trace_id`` (see :mod:`repro.telemetry.tracer`), which makes a trace a
forest of causality trees: a reinstall campaign parents per-node spans,
which parent anaconda phases, which parent HTTP GETs, which parent
network flows.  This module reconstructs that forest
(:func:`build_dag`), walks backwards from the end of any root span to
extract its *critical path* — the chain of spans that actually gated
the end-to-end time (:func:`critical_path`) — and attributes every
second of it to a named resource: frontend admission queues, saturated
links, retry backoffs, dead-node waits (:func:`attribute`).

Everything here is pure arithmetic over simulated timestamps, so the
rendered report (:func:`render_report`) is byte-identical for a fixed
seed — CI compares it against committed goldens exactly like traces.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .summary import percentile
from .tracer import Tracer

__all__ = [
    "SpanNode",
    "TraceDAG",
    "Segment",
    "build_dag",
    "dag_from_tracer",
    "critical_path",
    "attribute",
    "blocked_stats",
    "pick_root",
    "render_report",
]

#: Root-span kinds `pick_root` prefers, most interesting first.
ROOT_KINDS = ("campaign", "reinstall", "storm", "exec", "install")

#: Segment resources counted as the root's own (unattributed) overhead.
_ROOT_SELF = frozenset(
    f"self/{kind}" for kind in ("campaign", "reinstall", "storm", "exec")
)


class SpanNode:
    """One span in the reconstructed DAG."""

    __slots__ = ("span_id", "parent_id", "trace_id", "kind", "name",
                 "t0", "t1", "attrs", "children", "orphan")

    def __init__(self, record: dict):
        self.span_id = record["span_id"]
        self.parent_id = record["parent_id"]
        self.trace_id = record["trace_id"]
        self.kind = record["kind"]
        self.name = record["name"]
        self.t0 = record["t0"]
        self.t1 = record["t1"]  # None = left open at export
        self.attrs = record["attrs"]
        self.children: list[SpanNode] = []
        self.orphan = False  # parent_id referenced a span not in the trace

    @property
    def is_open(self) -> bool:
        return self.t1 is None

    def end_or(self, fallback: float) -> float:
        """The span's end, with open spans clamped to ``fallback``."""
        return fallback if self.t1 is None else self.t1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpanNode({self.kind}/{self.name} #{self.span_id})"


class TraceDAG:
    """A span forest indexed by id, with open spans clamped to trace end."""

    def __init__(self, nodes: dict[int, SpanNode], end_time: float):
        self.nodes = nodes
        self.end_time = end_time
        self.roots: list[SpanNode] = []
        self.orphans: list[SpanNode] = []
        self.open_spans: list[SpanNode] = []
        for node in nodes.values():
            if node.is_open:
                self.open_spans.append(node)
            if node.parent_id is None:
                self.roots.append(node)
            elif node.parent_id in nodes:
                nodes[node.parent_id].children.append(node)
            else:
                # Orphan: its parent never made it into the trace (e.g. a
                # truncated export).  Promote to root so its subtree still
                # gets analysed, but remember the dangling edge.
                node.orphan = True
                self.roots.append(node)
                self.orphans.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda c: (c.t0, c.span_id))
        self.roots.sort(key=lambda n: (n.t0, n.span_id))

    def node(self, span_id: int) -> SpanNode:
        return self.nodes[span_id]


def build_dag(records: Iterable[dict]) -> TraceDAG:
    """Reconstruct the span forest from decoded trace records.

    Accepts any iterable of record dicts (e.g. a parsed JSONL trace);
    non-span records are skipped.  Open spans (``t1: null``) are kept
    and clamped to the latest timestamp seen anywhere in the trace.
    """
    nodes: dict[int, SpanNode] = {}
    end_time = 0.0
    for record in records:
        rtype = record.get("type")
        if rtype == "span":
            node = SpanNode(record)
            nodes[node.span_id] = node
            end_time = max(end_time, node.t0)
            if node.t1 is not None:
                end_time = max(end_time, node.t1)
        elif rtype == "event":
            end_time = max(end_time, record["t"])
        elif rtype == "meta" and isinstance(record.get("end_time"), (int, float)):
            end_time = max(end_time, record["end_time"])
    return TraceDAG(nodes, end_time)


def dag_from_tracer(tracer: Tracer) -> TraceDAG:
    return build_dag(tracer.iter_records())


class Segment:
    """A half-open slice ``[t0, t1)`` of the critical path.

    ``node`` is the innermost span active over the slice — either a
    leaf, or a parent whose children left the slice uncovered (its
    *self time*).
    """

    __slots__ = ("t0", "t1", "node")

    def __init__(self, t0: float, t1: float, node: SpanNode):
        self.t0 = t0
        self.t1 = t1
        self.node = node

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def resource(self) -> str:
        return classify(self.node)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Segment({self.t0:.2f}..{self.t1:.2f} "
                f"{self.resource} #{self.node.span_id})")


def critical_path(dag: TraceDAG, root: SpanNode) -> list[Segment]:
    """The chain of spans gating ``root``'s end-to-end time.

    Walks backwards from the root's end: at any instant the blocker is
    the child active then that finished last; time no child covers
    belongs to the owning span itself.  Segments come back in
    increasing time order and tile ``[root.t0, root.end]`` exactly, so
    their durations sum to the root's duration (open spans clamped to
    the trace end).
    """
    segments: list[Segment] = []

    def walk(node: SpanNode, lo: float, hi: float) -> None:
        t = hi
        # Latest-finishing child first: that child is the blocker at its
        # end instant.  span_id breaks exact ties deterministically.
        for child in sorted(
            node.children,
            key=lambda c: (c.end_or(dag.end_time), c.t0, c.span_id),
            reverse=True,
        ):
            if t <= lo:
                break
            if child.t0 >= t:
                continue
            child_end = min(child.end_or(dag.end_time), t)
            if child_end <= lo:
                break
            if child_end < t:
                segments.append(Segment(child_end, t, node))
            child_lo = max(child.t0, lo)
            walk(child, child_lo, child_end)
            t = child_lo
        if t > lo:
            segments.append(Segment(lo, t, node))

    walk(root, root.t0, root.end_or(dag.end_time))
    segments.sort(key=lambda s: (s.t0, s.t1, s.node.span_id))
    return segments


def classify(node: SpanNode) -> str:
    """Map a span to the resource its critical-path time was spent on."""
    kind = node.kind
    if kind == "http-queue":
        return f"frontend-queue/{node.attrs.get('server', node.name)}"
    if kind == "flow":
        return f"link/{node.attrs.get('bottleneck', 'unknown')}"
    if kind in ("retry-wait", "exec-retry"):
        return "retry-backoff"
    if kind == "dead-wait":
        return "dead-wait"
    if kind == "http":
        return f"http-service/{node.attrs.get('server', node.name)}"
    if kind == "install-phase":
        return f"phase/{node.name}"
    if kind in ("campaign-node", "shoot", "boot"):
        return "node-boot"
    if kind == "fault":
        return f"fault/{node.name}"
    return f"self/{kind}"


def attribute(segments: Iterable[Segment]) -> list[tuple[str, float]]:
    """Total critical-path seconds per resource, largest first."""
    totals: dict[str, float] = {}
    for seg in segments:
        totals[seg.resource] = totals.get(seg.resource, 0.0) + seg.duration
    return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))


#: span kind -> blocked-time category for the percentile table.
_BLOCKED_CATEGORY = {
    "http-queue": "queue",
    "flow": "link",
    "retry-wait": "retry",
    "exec-retry": "retry",
    "dead-wait": "dead-wait",
}

_BLOCKED_ORDER = ("queue", "link", "retry", "dead-wait")


def blocked_stats(dag: TraceDAG) -> dict[str, dict]:
    """p50/p95 blocked time per category over *all* spans in the DAG."""
    by_cat: dict[str, list[float]] = {}
    for node in dag.nodes.values():
        cat = _BLOCKED_CATEGORY.get(node.kind)
        if cat is None:
            continue
        by_cat.setdefault(cat, []).append(node.end_or(dag.end_time) - node.t0)
    stats = {}
    for cat in _BLOCKED_ORDER:
        durations = by_cat.get(cat)
        if not durations:
            continue
        stats[cat] = {
            "count": len(durations),
            "p50": percentile(durations, 0.50),
            "p95": percentile(durations, 0.95),
            "total": sum(durations),
        }
    return stats


def pick_root(dag: TraceDAG,
              prefer: tuple = ROOT_KINDS) -> Optional[SpanNode]:
    """The most interesting root: preferred kind first, then longest."""
    if not dag.roots:
        return None
    for kind in prefer:
        candidates = [r for r in dag.roots if r.kind == kind]
        if candidates:
            return max(
                candidates,
                key=lambda n: (n.end_or(dag.end_time) - n.t0, -n.span_id),
            )
    return max(
        dag.roots, key=lambda n: (n.end_or(dag.end_time) - n.t0, -n.span_id)
    )


def render_report(dag: TraceDAG, root: SpanNode,
                  top: Optional[int] = None) -> str:
    """The byte-identical attribution report for one root span."""
    segments = critical_path(dag, root)
    total = root.end_or(dag.end_time) - root.t0
    open_note = " (left open, clamped to trace end)" if root.is_open else ""
    lines = [
        f"critical path: {root.kind} \"{root.name}\" — "
        f"{total:.1f} s wall-to-wall{open_note}",
        f"  {'seconds':>10}  {'share':>6}  resource",
    ]
    attributed = attribute(segments)
    shown = attributed if top is None else attributed[:top]
    for resource, seconds in shown:
        share = 100.0 * seconds / total if total > 0 else 0.0
        lines.append(f"  {seconds:>10.1f}  {share:>5.1f}%  {resource}")
    if top is not None and len(attributed) > top:
        rest = sum(seconds for _, seconds in attributed[top:])
        lines.append(
            f"  {rest:>10.1f}  "
            f"{100.0 * rest / total if total > 0 else 0.0:>5.1f}%  "
            f"({len(attributed) - top} more)"
        )
    named = sum(s for r, s in attributed if r not in _ROOT_SELF)
    named_pct = 100.0 * named / total if total > 0 else 0.0
    lines.append(
        f"attributed to named resources: {named_pct:.1f}% "
        f"({total - named:.1f} s root self-time)"
    )
    stats = blocked_stats(dag)
    if stats:
        lines.append("blocked-time percentiles (all spans, seconds):")
        lines.append(f"  {'category':<10} {'count':>7} {'p50':>9} {'p95':>9} "
                     f"{'total':>11}")
        for cat, s in stats.items():
            lines.append(
                f"  {cat:<10} {s['count']:>7} {s['p50']:>9.2f} "
                f"{s['p95']:>9.2f} {s['total']:>11.1f}"
            )
    if dag.open_spans:
        lines.append(f"open spans clamped to t={dag.end_time:.1f}s: "
                     f"{len(dag.open_spans)}")
    if dag.orphans:
        lines.append(f"orphan spans promoted to roots: {len(dag.orphans)}")
    return "\n".join(lines)

