"""The AST determinism linter: planted hazards, clean forms, self-hosting."""

import textwrap

from repro.analysis import Baseline, SelfLintContext, analyze_self


def make_ctx(tmp_path, files):
    """Build a fake package tree: {relative path: source}."""
    pkg = tmp_path / "src" / "pkg"
    for rel, source in files.items():
        path = pkg / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return SelfLintContext(package_root=pkg, repo_root=tmp_path)


def codes(diags):
    return [d.code for d in diags]


# -- RK201: wall clock ---------------------------------------------------------


def test_rk201_time_time(tmp_path):
    ctx = make_ctx(tmp_path, {"a.py": """
        import time
        def stamp():
            return time.time()
    """})
    diags = analyze_self(ctx)
    assert codes(diags) == ["RK201"]
    assert "time.time()" in diags[0].message
    assert diags[0].location.file == "src/pkg/a.py"
    assert diags[0].location.line == 4


def test_rk201_datetime_now_variants(tmp_path):
    ctx = make_ctx(tmp_path, {"a.py": """
        import datetime
        from datetime import datetime as dt
        x = datetime.datetime.now()
        y = dt.utcnow()
    """})
    assert codes(analyze_self(ctx)) == ["RK201", "RK201"]


def test_rk201_from_import_and_alias(tmp_path):
    ctx = make_ctx(tmp_path, {"a.py": """
        from time import monotonic
        import time as clock
        a = monotonic()
        b = clock.perf_counter()
    """})
    assert codes(analyze_self(ctx)) == ["RK201", "RK201"]


def test_rk201_env_now_is_clean(tmp_path):
    ctx = make_ctx(tmp_path, {"a.py": """
        def stamp(env):
            return env.now
    """})
    assert analyze_self(ctx) == []


# -- RK202: unseeded global RNG ------------------------------------------------


def test_rk202_module_level_random(tmp_path):
    ctx = make_ctx(tmp_path, {"a.py": """
        import random
        jitter = random.random()
        pick = random.choice([1, 2])
    """})
    diags = analyze_self(ctx)
    assert codes(diags) == ["RK202", "RK202"]
    assert "unseeded" in diags[0].message


def test_rk202_from_import(tmp_path):
    ctx = make_ctx(tmp_path, {"a.py": """
        from random import randint
        n = randint(0, 10)
    """})
    assert codes(analyze_self(ctx)) == ["RK202"]


def test_rk202_seeded_instance_is_clean(tmp_path):
    ctx = make_ctx(tmp_path, {"a.py": """
        import random
        rng = random.Random(42)
        n = rng.randint(0, 10)
    """})
    assert analyze_self(ctx) == []


# -- RK203: set iteration in hot paths ----------------------------------------


def test_rk203_for_over_set_in_hot_path(tmp_path):
    ctx = make_ctx(tmp_path, {"netsim/flows.py": """
        def run(items):
            for x in set(items):
                print(x)
    """})
    diags = analyze_self(ctx)
    assert codes(diags) == ["RK203"]
    assert "hot path" in diags[0].message


def test_rk203_tracked_name_and_comprehension(tmp_path):
    ctx = make_ctx(tmp_path, {"installer/phases.py": """
        def run(items):
            pending = set(items)
            total = sum(x.size for x in pending)
            extra = {x for x in frozenset(items)}
            return total, extra
    """})
    assert codes(analyze_self(ctx)) == ["RK203", "RK203"]


def test_rk203_ignores_cold_paths_and_ordered_forms(tmp_path):
    ctx = make_ctx(tmp_path, {
        # same hazard outside a hot path: not flagged
        "core/tools.py": """
            def run(items):
                for x in set(items):
                    print(x)
        """,
        # ordered iteration forms in a hot path: clean
        "netsim/engine.py": """
            def run(items):
                for x in sorted(set(items)):
                    print(x)
                for y in dict.fromkeys(items):
                    print(y)
                members = set(items)
                if items[0] in members:   # membership only, never iterated
                    return True
        """,
    })
    assert analyze_self(ctx) == []


# -- RK204: leaked spans -------------------------------------------------------


def test_rk204_discarded_span(tmp_path):
    ctx = make_ctx(tmp_path, {"a.py": """
        def run(tracer, parent):
            tracer.span("install", "node-1", parent=parent)
    """})
    diags = analyze_self(ctx)
    assert codes(diags) == ["RK204"]
    assert "never be closed" in diags[0].message


def test_rk204_bound_and_with_forms_are_clean(tmp_path):
    ctx = make_ctx(tmp_path, {"a.py": """
        def run(tracer, parent):
            span = tracer.span("install", "node-1", parent=parent)
            span.end()
            with tracer.span("phase", "dhcp", parent=span):
                pass
    """})
    assert analyze_self(ctx) == []


# -- RK205: leaked metric series -----------------------------------------------


def test_rk205_discarded_series(tmp_path):
    ctx = make_ctx(tmp_path, {"a.py": """
        def setup(store):
            store.open_series("fe/load")
    """})
    diags = analyze_self(ctx)
    assert codes(diags) == ["RK205"]
    assert "opened and discarded" in diags[0].message
    assert "feed_series()" in (diags[0].hint or "")


def test_rk205_bound_and_recorded_forms_are_clean(tmp_path):
    ctx = make_ctx(tmp_path, {"a.py": """
        def setup(store, env):
            series = store.open_series("fe/load")
            feed_series([series], env.now, [("load", 1.0)])
            return store.open_series("fe/cpu")
    """})
    assert analyze_self(ctx) == []


# -- cross-cutting -------------------------------------------------------------


def test_diagnostics_deterministic_across_runs(tmp_path):
    files = {"netsim/a.py": """
        import time
        def f(xs):
            t = time.time()
            for x in set(xs):
                pass
            return t
    """}
    first = analyze_self(make_ctx(tmp_path, files))
    second = analyze_self(make_ctx(tmp_path, files))
    assert [d.to_dict() for d in first] == [d.to_dict() for d in second]
    assert codes(first) == ["RK201", "RK203"]


def test_select_filters_self_passes(tmp_path):
    ctx = make_ctx(tmp_path, {"netsim/a.py": """
        import time
        def f(xs):
            t = time.time()
            for x in set(xs):
                pass
    """})
    assert codes(analyze_self(ctx, select=["RK203"])) == ["RK203"]


def test_syntax_error_files_are_skipped(tmp_path):
    ctx = make_ctx(tmp_path, {"bad.py": "def broken(:\n"})
    assert analyze_self(ctx) == []


# -- RK206: unbounded queues on storm paths -----------------------------------


def test_rk206_unbounded_deque_in_load_package(tmp_path):
    ctx = make_ctx(tmp_path, {"load/generator.py": """
        from collections import deque
        def run():
            pending = deque()
            return pending
    """})
    diags = analyze_self(ctx)
    assert codes(diags) == ["RK206"]
    assert "without a bound" in diags[0].message
    assert "maxlen" in diags[0].hint


def test_rk206_unbounded_queue_classes_in_netsim(tmp_path):
    ctx = make_ctx(tmp_path, {"netsim/buffers.py": """
        import collections
        import queue
        def run():
            a = collections.deque()
            b = queue.Queue()
            c = queue.SimpleQueue()   # has no bound at all
            d = queue.LifoQueue(maxsize=0)  # 0 means unbounded
            return a, b, c, d
    """})
    assert codes(analyze_self(ctx)) == ["RK206"] * 4


def test_rk206_bounded_forms_are_clean(tmp_path):
    ctx = make_ctx(tmp_path, {"load/buffers.py": """
        import collections
        from collections import deque
        from queue import Queue
        def run(items):
            a = deque(maxlen=64)
            b = collections.deque(items, 64)  # positional maxlen
            c = Queue(maxsize=16)
            d = Queue(16)
            return a, b, c, d
    """})
    assert analyze_self(ctx) == []


def test_rk206_ignores_cold_packages(tmp_path):
    ctx = make_ctx(tmp_path, {"analysis/worklist.py": """
        from collections import deque
        def run():
            return deque()
    """})
    assert analyze_self(ctx) == []


def test_rk206_suppressible_by_baseline(tmp_path):
    ctx = make_ctx(tmp_path, {"netsim/accept.py": """
        from collections import deque
        def run():
            return deque()
    """})
    diags = analyze_self(ctx)
    assert codes(diags) == ["RK206"]
    baseline_file = tmp_path / "baseline.txt"
    baseline_file.write_text(
        "RK206 src/pkg/netsim/accept.py  # bounded by the admission cap\n"
    )
    kept, suppressed = Baseline.from_file(baseline_file).apply(diags)
    assert kept == [] and len(suppressed) == 1


# -- RK208: unparented spans ---------------------------------------------------


def test_rk208_unparented_span_flagged(tmp_path):
    ctx = make_ctx(tmp_path, {"sim.py": """
        def run(env):
            span = env.tracer.span("install", "node-1")
            span.end()
    """})
    diags = analyze_self(ctx)
    assert codes(diags) == ["RK208"]
    assert "accidental" in diags[0].message


def test_rk208_explicit_parent_none_is_clean(tmp_path):
    """parent=None is a visible decision (maybe-parent threading), not a
    hazard — the lint wants the decision made, not a particular value."""
    ctx = make_ctx(tmp_path, {"sim.py": """
        def run(env, parent):
            span = env.tracer.span("install", "node-1", parent=None)
            span.end()
            env.tracer.record_span("dead-wait", "node-2", 0.0, parent=parent)
    """})
    assert analyze_self(ctx) == []


def test_rk208_record_span_flagged_and_telemetry_pkg_exempt(tmp_path):
    ctx = make_ctx(tmp_path, {
        "core/boot.py": """
            def note(env, t0):
                env.tracer.record_span("dead-wait", "node-3", t0)
        """,
        "telemetry/tracer.py": """
            def demo(tracer):
                span = tracer.span("install", "node-1")
                span.end()
        """,
    })
    diags = analyze_self(ctx)
    assert codes(diags) == ["RK208"]
    assert diags[0].location.file.endswith("core/boot.py")


def test_rk208_ignores_non_tracer_receivers(tmp_path):
    ctx = make_ctx(tmp_path, {"geom.py": """
        def run(rect):
            return rect.span("x", "y")
    """})
    assert analyze_self(ctx) == []


def test_rk201_aliased_wall_clock_flagged(tmp_path):
    """Binding time.perf_counter to a local reads the wall clock at every
    later call without ever matching the Call pattern — the alias itself
    is the hazard."""
    ctx = make_ctx(tmp_path, {"a.py": """
        import time
        def hot():
            perf = time.perf_counter
            return perf()
    """})
    diags = analyze_self(ctx)
    assert codes(diags) == ["RK201"]
    assert "aliased" in diags[0].message


# -- self-hosting: the acceptance gate ----------------------------------------


def test_self_lint_clean_against_committed_baseline(src_repro_lint):
    """src/repro passes its own determinism linter with the committed
    baseline (one RK206 entry documents the invariant bounding the
    admission accept queue; every other surfaced hazard was fixed)."""
    ctx, diags = src_repro_lint
    baseline = Baseline.from_file(ctx.repo_root / "lint-baseline.txt")
    kept, _suppressed = baseline.apply(diags)
    assert kept == [], [d.render() for d in kept]


def test_self_lint_scans_the_real_tree(src_repro_lint):
    ctx, _diags = src_repro_lint
    files = {pf.rel for pf in ctx.files}
    assert "src/repro/netsim/flows.py" in files
    assert "src/repro/installer/anaconda.py" in files
    assert "src/repro/analysis/selfcheck.py" in files  # lints itself
