"""Simulation telemetry: structured tracing + metrics.

The observability layer the CERN/Brookhaven operations papers call for:
a :class:`Tracer` attached to an :class:`~repro.netsim.Environment`
records typed, simulated-time-stamped spans and events from every
instrumented subsystem (netsim flows and HTTP, the anaconda installer,
services, fault injection, reinstall campaigns), and its
:class:`Metrics` registry collects counters and time-weighted gauges
(per-link utilization timeseries, concurrent-install counts).

Tracing is **off by default and zero-overhead when off**: environments
start with the no-op :data:`NULL_TRACER`.  Opt in per run::

    from repro import build_cluster
    from repro.telemetry import Tracer, to_jsonl, summarize

    tracer = Tracer()
    sim = build_cluster(n_compute=8, tracer=tracer)
    sim.integrate_all()
    sim.reinstall_all()
    print(to_jsonl(tracer))          # JSONL export (schema-validated)
    print(summarize(tracer))         # p50/p95/max per phase, peak link util
"""

from .metrics import Metrics, NullMetrics
from .tracer import NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer
from .export import iter_trace_records, to_jsonl, write_jsonl
from .chrome import chrome_trace_events, to_chrome_json
from .critpath import (
    TraceDAG,
    build_dag,
    critical_path,
    dag_from_tracer,
    pick_root,
    render_report,
)
from .schema import (
    KNOWN_KINDS,
    TRACE_FORMAT,
    TRACE_VERSION,
    validate_record,
    validate_trace_lines,
    validate_trace_text,
)
from .summary import percentile, render_summary, summarize

__all__ = [
    "Metrics",
    "NullMetrics",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "iter_trace_records",
    "to_jsonl",
    "write_jsonl",
    "chrome_trace_events",
    "to_chrome_json",
    "TraceDAG",
    "build_dag",
    "critical_path",
    "dag_from_tracer",
    "pick_root",
    "render_report",
    "KNOWN_KINDS",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "validate_record",
    "validate_trace_lines",
    "validate_trace_text",
    "percentile",
    "render_summary",
    "summarize",
]
