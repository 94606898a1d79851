"""Deterministic JSON/JSONL export of a trace.

Records serialise with sorted keys and minimal separators, so the same
seeded run always produces the same bytes — the property the tracer
determinism tests pin down.
"""

from __future__ import annotations

import json
from typing import Iterator

from .schema import TRACE_FORMAT, TRACE_VERSION
from .tracer import Tracer

__all__ = ["iter_trace_records", "to_jsonl", "write_jsonl"]


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def iter_trace_records(tracer: Tracer) -> Iterator[dict]:
    """Header, then spans/events in seq order, then counters and gauges."""
    yield {
        "type": "meta",
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "clock": "simulated-seconds",
        "n_records": tracer.n_records,
        "end_time": tracer.now,
    }
    yield from tracer.iter_records()
    metrics = tracer.metrics
    counters = metrics.counters
    for name in sorted(counters):
        yield {"type": "counter", "name": name, "value": counters[name]}
    for name in metrics.gauge_names():
        yield {
            "type": "gauge",
            "name": name,
            "samples": [[t, v] for t, v in metrics.samples(name)],
        }


def to_jsonl(tracer: Tracer) -> str:
    """The full trace as JSON Lines text (one record per line)."""
    return "\n".join(_dumps(rec) for rec in iter_trace_records(tracer)) + "\n"


def write_jsonl(tracer: Tracer, path: str) -> int:
    """Write the trace to ``path``; returns the number of records."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in iter_trace_records(tracer):
            fh.write(_dumps(rec) + "\n")
            n += 1
    return n

