"""Chrome-trace (``trace_event``) export: open a run in Perfetto.

Converts a trace into the Trace Event JSON format that ``chrome://
tracing`` and https://ui.perfetto.dev render: one track (thread) per
host or service, complete (``X``) events for closed spans, begin
(``B``) events for spans left open, instant (``i``) events, and
``s``/``f`` flow arrows wherever causality crosses tracks — a campaign
on the frontend fanning out to per-node installs, an exec task fanning
out to its targets.

Simulated seconds map to microseconds (the format's native unit), and
everything — track ids, event order, JSON key order — is derived from
deterministic record data, so the export is byte-identical for a fixed
seed.
"""

from __future__ import annotations

import json
from typing import Iterable

from .export import iter_trace_records
from .tracer import Tracer

__all__ = ["chrome_trace_events", "to_chrome_json"]

#: attrs keys consulted (in order) to place a record on a host track.
_TRACK_KEYS = ("host", "server", "node", "client", "target")


def _track(record: dict) -> str:
    """The track (Perfetto thread) a span/event record renders on."""
    attrs = record.get("attrs", {})
    for key in _TRACK_KEYS:
        value = attrs.get(key)
        if isinstance(value, str):
            return value
    if record["kind"] == "service":
        return record["name"]
    if record["kind"] == "flow":
        return "network"
    return "control"


def _us(t: float) -> float:
    """Simulated seconds -> trace_event microseconds."""
    return round(t * 1e6, 3)


def chrome_trace_events(records: Iterable[dict]) -> list[dict]:
    """Trace Event objects for the span/event records in ``records``."""
    spans_and_events = [
        r for r in records if r.get("type") in ("span", "event")
    ]
    tracks = sorted({_track(r) for r in spans_and_events})
    tid = {name: i + 1 for i, name in enumerate(tracks)}
    span_track = {
        r["span_id"]: _track(r) for r in spans_and_events
        if r["type"] == "span"
    }

    events: list[dict] = [
        {
            "ph": "M", "name": "process_name", "pid": 1, "tid": 0,
            "args": {"name": "repro cluster"},
        }
    ]
    for name in tracks:
        events.append({
            "ph": "M", "name": "thread_name", "pid": 1, "tid": tid[name],
            "args": {"name": name},
        })

    for record in spans_and_events:
        track = _track(record)
        args = dict(record["attrs"])
        if record["type"] == "span":
            args["span_id"] = record["span_id"]
            if record["parent_id"] is not None:
                args["parent_id"] = record["parent_id"]
            args["trace_id"] = record["trace_id"]
            base = {
                "name": f"{record['kind']}:{record['name']}",
                "cat": record["kind"],
                "pid": 1,
                "tid": tid[track],
                "ts": _us(record["t0"]),
                "args": args,
            }
            if record["t1"] is None:
                events.append({**base, "ph": "B"})
            else:
                events.append({
                    **base, "ph": "X",
                    "dur": _us(record["t1"]) - _us(record["t0"]),
                })
            # Cross-track causality renders as a flow arrow from the
            # parent's track to the child's start.
            parent_track = span_track.get(record["parent_id"])
            if parent_track is not None and parent_track != track:
                flow = {
                    "name": "causality",
                    "cat": record["kind"],
                    "id": record["span_id"],
                    "pid": 1,
                    "ts": _us(record["t0"]),
                }
                events.append({**flow, "ph": "s", "tid": tid[parent_track]})
                events.append({**flow, "ph": "f", "bp": "e",
                               "tid": tid[track]})
        else:
            if "parent_id" in record:
                args["parent_id"] = record["parent_id"]
                args["trace_id"] = record["trace_id"]
            events.append({
                "ph": "i",
                "s": "t",
                "name": f"{record['kind']}:{record['name']}",
                "cat": record["kind"],
                "pid": 1,
                "tid": tid[track],
                "ts": _us(record["t"]),
                "args": args,
            })
    return events


def to_chrome_json(tracer: Tracer) -> str:
    """The whole trace as a Trace Event JSON document (deterministic)."""
    payload = {
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated-seconds-as-us"},
        "traceEvents": chrome_trace_events(iter_trace_records(tracer)),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

