"""The cProfile layer rollup behind ``repro explain --profile``."""

import cProfile
import importlib.util
import os
import pstats
from pathlib import Path

import pytest

import repro
from repro import build_cluster
from repro.telemetry import layers

PKG = os.path.join(os.path.abspath(os.sep), "site", "repro")
REPO_ROOT = Path(__file__).resolve().parents[2]


def src(rel):
    return os.path.join(PKG, *rel.split("/"))


def func(rel, name):
    """A pstats function key for a file under the synthetic package."""
    return (src(rel), 1, name)


def builtin(name):
    return ("~", 0, f"<built-in method {name}>")


def stdlib(name, line=1):
    """A Python function from outside the package."""
    return (os.path.join(os.path.dirname(PKG), "stdlib.py"), line, name)


def entry(tt, callers=None):
    """A pstats row ``(cc, nc, tt, ct, callers)``; callers map to
    ``(nc, cc, tt, ct)``, the per-caller self time in slot 2."""
    callers = {c: (1, 1, t, t) for c, t in (callers or {}).items()}
    return (1, 1, tt, tt, callers)


FLOWS = func("netsim/flows.py", "_fill")
ENGINE = func("netsim/engine.py", "step")


@pytest.mark.parametrize("rel, layer", [
    ("netsim/flows.py", "netsim.flows"),
    ("exec/task.py", "exec"),
    ("quickbuild.py", "quickbuild"),
    ("analysis/sanitizer.py", layers.OTHER),
    ("../heapq.py", None),
])
def test_owner_maps_package_files_to_layers(rel, layer):
    assert layers.owner(src(rel), PKG) == layer


def test_foreign_function_is_split_by_each_callers_time():
    heappush = builtin("heappush")
    stats = {
        FLOWS: entry(1.0),
        ENGINE: entry(2.0),
        heappush: entry(0.4, {FLOWS: 0.3, ENGINE: 0.1}),
    }
    out = layers.rollup(stats, PKG)
    assert out["netsim.flows"] == pytest.approx(1.3)
    assert out["netsim.engine"] == pytest.approx(2.1)
    assert out[layers.UNATTRIBUTED] == 0.0


def test_recursive_foreign_chain_terminates():
    # a and b call each other; only b has a repro caller.
    a, b = stdlib("deepcopy", 10), stdlib("_reconstruct", 20)
    stats = {
        FLOWS: entry(0.5),
        a: entry(0.2, {b: 0.2}),
        b: entry(0.3, {a: 0.1, FLOWS: 0.2}),
    }
    out = layers.rollup(stats, PKG)
    assert out["netsim.flows"] >= 0.5
    assert out["netsim.flows"] + out[layers.UNATTRIBUTED] == pytest.approx(1.0)


def test_time_with_no_repro_frame_above_is_unattributed():
    root = stdlib("_run_module_as_main")
    callee = builtin("print")
    stats = {
        root: entry(0.25),
        callee: entry(0.5, {root: 0.5}),
        ENGINE: entry(1.0),
    }
    out = layers.rollup(stats, PKG)
    assert out[layers.UNATTRIBUTED] == pytest.approx(0.75)
    assert out["netsim.engine"] == pytest.approx(1.0)


def test_caller_edges_with_no_time_and_no_calls_are_unattributed():
    # cProfile records generator.throw under Process._resume with an
    # all-zero edge when a frame below the top of the process's
    # yield-from chain catches the thrown exception.
    throw = builtin("throw")
    stats = {
        ENGINE: entry(1.0),
        throw: (3, 3, 0.25, 0.25, {ENGINE: (0, 0, 0.0, 0.0)}),
    }
    out = layers.rollup(stats, PKG)
    assert out[layers.UNATTRIBUTED] == pytest.approx(0.25)
    assert out["netsim.engine"] == pytest.approx(1.0)
    assert out["total"] == pytest.approx(1.25)


def test_layers_sum_to_total():
    heappush = builtin("heappush")
    stats = {
        FLOWS: entry(1.0, {ENGINE: 1.0}),
        ENGINE: entry(2.0),
        func("analysis/sanitizer.py", "step"): entry(0.125),
        heappush: entry(0.4, {FLOWS: 0.3, ENGINE: 0.1}),
        builtin("print"): entry(0.0625),
    }
    out = layers.rollup(stats, PKG)
    total = out.pop("total")
    assert total == pytest.approx(3.5875)
    assert set(out) == {*layers.LAYERS, layers.OTHER, layers.UNATTRIBUTED}
    assert sum(out.values()) == pytest.approx(total, rel=1e-12)


def test_render_lists_every_layer_then_the_total():
    out = layers.rollup({ENGINE: entry(3.0), FLOWS: entry(1.0)}, PKG)
    lines = layers.render(out).splitlines()
    assert [line.split()[-1] for line in lines[2:]] == [
        *layers.LAYERS, layers.OTHER, layers.UNATTRIBUTED, "total"]
    assert lines[2].split()[:2] == ["3.000000000000", "75.0%"]
    assert lines[-1].split()[:2] == ["4.000000000000", "100.0%"]


def test_perfbench_copy_has_not_drifted():
    """perfbench keeps its own copy of this module until it imports it;
    both must roll one real profile up identically."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", REPO_ROOT / "perfbench" / "layers.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.LAYERS == layers.LAYERS

    sim = build_cluster(n_compute=1)
    sim.integrate_all()
    profiler = cProfile.Profile()
    with profiler:
        sim.reinstall_all()
    stats = pstats.Stats(profiler).stats
    package = os.path.dirname(os.path.abspath(repro.__file__))
    ours = layers.rollup(stats, package)
    assert ours["netsim.engine"] > 0
    assert bench.rollup(stats, package) == ours
