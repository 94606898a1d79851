"""Chrome-trace export: shape, flow arrows, and byte determinism."""

import json
import os
import subprocess
import sys

import pytest

from repro import build_cluster
from repro.telemetry import Tracer, to_chrome_json
from repro.telemetry.chrome import chrome_trace_events


def traced_run(n_compute=2):
    tracer = Tracer()
    sim = build_cluster(n_compute=n_compute, tracer=tracer)
    sim.integrate_all()
    sim.reinstall_all()
    return tracer


def test_chrome_events_have_tracks_and_complete_spans():
    tracer = traced_run()
    events = chrome_trace_events(tracer.iter_records())
    metas = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "process_name" for e in metas)
    thread_names = {e["args"]["name"] for e in metas
                    if e["name"] == "thread_name"}
    assert "compute-0-0" in thread_names
    complete = [e for e in events if e["ph"] == "X"]
    assert complete and all(e["dur"] >= 0 for e in complete)
    # span ids ride along so Perfetto queries can join on them
    assert all("span_id" in e["args"] for e in complete)


def test_chrome_open_span_exports_as_begin_event():
    tracer = Tracer()
    from repro.netsim import Environment

    env = Environment()
    tracer.attach(env)
    tracer.span("install", "node-1", parent=None)  # never ended
    events = chrome_trace_events(tracer.iter_records())
    assert [e["ph"] for e in events if e["ph"] in "BX"] == ["B"]


def test_chrome_cross_track_causality_gets_flow_arrows():
    """A child on a different track than its parent renders an s/f pair."""
    tracer = traced_run()
    events = chrome_trace_events(tracer.iter_records())
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert starts and len(starts) == len(finishes)
    assert {e["id"] for e in starts} == {e["id"] for e in finishes}


def test_chrome_json_same_seed_byte_identical():
    assert to_chrome_json(traced_run()) == to_chrome_json(traced_run())


def test_chrome_json_is_valid_trace_event_document():
    doc = json.loads(to_chrome_json(traced_run()))
    assert set(doc) == {"displayTimeUnit", "otherData", "traceEvents"}
    assert all("ph" in e for e in doc["traceEvents"])


# -- byte identity across interpreter hash seeds ------------------------------

SUBPROCESS_SCRIPT = """
from repro import build_cluster
from repro.telemetry import (
    Tracer, dag_from_tracer, pick_root, render_report, to_chrome_json,
)
tracer = Tracer()
sim = build_cluster(n_compute=3, tracer=tracer)
sim.integrate_all()
sim.reinstall_all()
import sys
sys.stdout.write(to_chrome_json(tracer))
dag = dag_from_tracer(tracer)
sys.stdout.write(render_report(dag, pick_root(dag)))
"""


@pytest.mark.parametrize("hashseed", ["0", "424242"])
def test_chrome_and_critpath_bytes_stable_across_hash_seeds(hashseed):
    """Chrome export and the attribution report are CI artifacts compared
    byte-for-byte, so they must not depend on dict/set hash order."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ,
               PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", SUBPROCESS_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    expected_env = dict(env, PYTHONHASHSEED="7777")
    expected = subprocess.run(
        [sys.executable, "-c", SUBPROCESS_SCRIPT],
        capture_output=True, text=True, env=expected_env, check=True,
    ).stdout
    assert out == expected
    assert '"traceEvents"' in out
    assert "critical path: reinstall" in out
