"""Tests of the benchmark itself: layer accounting, repeatability,
layer separation between workloads, and the output check.

    python3 -m pytest perfbench -q

Each traced repetition runs a full workload under ``cProfile`` (about
a minute for all three), so these tests live beside the benchmark
rather than in the tier-1 suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402

SEED = run.DEFAULT_SEED


@pytest.fixture(scope="module")
def profiled():
    """One traced repetition per workload at the default seed, cached."""
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = run.repetition(workload, SEED, True)
        return cache[workload]

    return get


def _share(rep, layer):
    return rep["layers"][layer] / rep["layers"]["total"]


def _committed(workload):
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)[workload]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_self_times_sum_to_profiled_total(profiled, workload):
    found = profiled(workload)["layers"]
    parts = sum(v for k, v in found.items() if k != "total")
    assert parts == pytest.approx(found["total"], rel=1e-9)
    assert found["total"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reproduces_committed_digest(profiled, workload):
    rep = profiled(workload)
    assert rep["problems"] == []
    assert rep["digest"] == _committed(workload)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_counts_match_across_traced_runs(profiled, workload):
    again = run.repetition(workload, SEED, True)
    assert again["counts"] == profiled(workload)["counts"]
    assert again["digest"] == profiled(workload)["digest"]


def test_separation_premise(profiled):
    table1, storm, fork = (profiled(w) for w in run.WORKLOADS)
    # fair-share dominates the two install workloads and is absent on the fork
    for rep in (table1, storm):
        assert max(layers.LAYERS, key=rep["layers"].get) == "netsim.flows"
    assert fork["layers"]["netsim.flows"] == 0.0
    assert fork["counts"]["reallocations"] == 0
    # the engine dominates the fork; the exec fabric lives only there
    assert max(layers.LAYERS, key=fork["layers"].get) == "netsim.engine"
    assert _share(fork, "exec") > 0.1
    for rep in (table1, storm):
        assert rep["layers"]["exec"] == 0.0
        assert _share(rep, "scheduler") < 0.01
    # table1 runs untraced: the null tracer costs about nothing
    assert _share(table1, "telemetry") < 0.01
    assert _share(storm, "telemetry") > 0.01
    for rep in (table1, storm, fork):
        assert _share(rep, layers.UNATTRIBUTED) < 0.01


def test_other_seed_changes_digest_and_keeps_invariants():
    base = run.repetition("fork-4096", SEED, False)
    other = run.repetition("fork-4096", SEED + 1, False)
    assert base["problems"] == other["problems"] == []
    assert base["digest"] == _committed("fork-4096")
    assert other["digest"] != base["digest"]


def test_host_speed_samples_and_rescales():
    speed = rep.HostSpeed()
    with speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    assert len(speed.speeds) >= 5
    assert 0 < speed.cost < 0.2
    # probing at exactly the reference speed leaves wall time less cost
    speed.speeds, speed.cost = [1.0 / rep.PROBE_REFERENCE_S] * 3, 0.25
    assert speed.normalise(1.25) == pytest.approx(1.0)
    # a host running at half speed halves the normalised time
    speed.speeds = [0.5 / rep.PROBE_REFERENCE_S]
    assert speed.normalise(1.25) == pytest.approx(0.5)


def test_failures_flags_digest_mismatch():
    rep = {"problems": [], "digest": "a"}
    assert run.failures([rep, dict(rep)], "a") == []
    assert len(run.failures([rep, dict(rep)], "b")) == 2
    assert len(run.failures([rep, {"problems": [], "digest": "c"}], None)) == 1
    assert len(run.failures([{"problems": ["down"], "digest": "a"}], None)) == 1


def test_rollup_charges_builtins_to_their_callers(tmp_path):
    pkg = tmp_path / "repro"
    flows = (str(pkg / "netsim" / "flows.py"), 1, "f")
    task = (str(pkg / "exec" / "task.py"), 1, "g")
    misc = (str(pkg / "analysis" / "passes.py"), 1, "h")
    stdlib = ("/usr/lib/python3/random.py", 1, "uniform")
    builtin = ("~", 0, "<built-in method math.sqrt>")
    harness = (str(tmp_path / "bench.py"), 1, "main")
    stats = {
        flows: (1, 1, 2.0, 5.0, {harness: (1, 1, 2.0, 5.0)}),
        task: (1, 1, 1.0, 2.0, {harness: (1, 1, 1.0, 2.0)}),
        misc: (1, 1, 0.5, 0.5, {harness: (1, 1, 0.5, 0.5)}),
        stdlib: (2, 2, 1.0, 2.0, {flows: (1, 1, 0.75, 1.5),
                                  task: (1, 1, 0.25, 0.5)}),
        builtin: (3, 3, 2.0, 2.0, {stdlib: (2, 2, 1.0, 1.0),
                                   flows: (1, 1, 1.0, 1.0)}),
        harness: (1, 1, 0.25, 7.75, {}),
    }
    out = layers.rollup(stats, str(pkg))
    assert out["netsim.flows"] == pytest.approx(2.0 + 0.75 + 1.0 + 0.75)
    assert out["exec"] == pytest.approx(1.0 + 0.25 + 0.25)
    assert out[layers.OTHER] == pytest.approx(0.5)
    assert out[layers.UNATTRIBUTED] == pytest.approx(0.25)
    assert out["total"] == pytest.approx(6.75)
    assert sum(v for k, v in out.items() if k != "total") == pytest.approx(6.75)


def test_fails_without_simulator_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fork-4096",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
