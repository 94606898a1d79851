"""The RK301–RK304 self-lint passes: planted hazards, clean forms, self-hosting."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis import SelfLintContext, analyze_self

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_ctx(tmp_path, files):
    """Build a fake package tree: {relative path: source}.

    Paths under ``netsim/`` etc. land in hot packages; paths under
    ``analysis/`` do not.
    """
    pkg = tmp_path / "src" / "pkg"
    for rel, source in files.items():
        path = pkg / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return SelfLintContext(package_root=pkg, repo_root=tmp_path)


def codes(diags):
    return [d.code for d in diags]


# -- RK301: unseeded Random() --------------------------------------------------


def test_rk301_direct_in_sim_code(tmp_path):
    ctx = make_ctx(tmp_path, {"netsim/a.py": """
        import random
        def jitter():
            rng = random.Random()
            return rng.random()
    """})
    diags = analyze_self(ctx)
    assert codes(diags) == ["RK301"]
    assert diags[0].location.line == 4


def test_rk301_taint_through_helper(tmp_path):
    ctx = make_ctx(tmp_path, {
        "util.py": """
            from random import Random
            def make_rng():
                return Random()
        """,
        "netsim/b.py": """
            from ..util import make_rng
            def delays():
                return make_rng().random()
        """,
    })
    diags = analyze_self(ctx)
    assert codes(diags) == ["RK301"]
    assert diags[0].location.file == "src/pkg/util.py"


def test_rk301_seeded_is_clean(tmp_path):
    ctx = make_ctx(tmp_path, {"netsim/a.py": """
        import random
        def jitter(seed):
            a = random.Random(seed)
            b = random.Random(x=seed)
            c = random.Random(seed=7)
            return a, b, c
    """})
    assert analyze_self(ctx) == []


# -- RK302: yield-straddling staleness -----------------------------------------


def test_rk302_snapshot_read_after_yield(tmp_path):
    ctx = make_ctx(tmp_path, {"netsim/d.py": """
        class Pool:
            def refill(self, env):
                active = list(self.flows)
                yield env.timeout(1.0)
                for flow in active:
                    flow.credit += 1
    """})
    diags = analyze_self(ctx)
    assert codes(diags) == ["RK302"]
    assert "active" in diags[0].message
    assert diags[0].data["snapshot"] == "list(self.flows)"


def test_rk302_copy_method_form(tmp_path):
    ctx = make_ctx(tmp_path, {"netsim/d.py": """
        def drain(env, queue):
            pending = queue.items.copy()
            yield env.timeout(1.0)
            return len(pending)
    """})
    assert codes(analyze_self(ctx)) == ["RK302"]


def test_rk302_use_before_yield_is_clean(tmp_path):
    ctx = make_ctx(tmp_path, {"netsim/d.py": """
        def report(self, env):
            active = list(self.flows)
            count = len(active)
            yield env.timeout(1.0)
            return count
    """})
    assert analyze_self(ctx) == []


def test_rk302_local_snapshot_is_clean(tmp_path):
    """Copying purely local data shares nothing; suspension is safe."""
    ctx = make_ctx(tmp_path, {"netsim/d.py": """
        def batch(env, names):
            mine = list(names)
            yield env.timeout(1.0)
            return mine
    """})
    assert analyze_self(ctx) == []


# -- RK303: unbounded wait loops -----------------------------------------------


def test_rk303_pure_sleep_poll(tmp_path):
    ctx = make_ctx(tmp_path, {"netsim/e.py": """
        def wait_ready(env, node):
            while not node.ready:
                yield env.timeout(1.0)
    """})
    diags = analyze_self(ctx)
    assert codes(diags) == ["RK303"]
    assert "not node.ready" in diags[0].message


def test_rk303_deadline_bound_is_clean(tmp_path):
    ctx = make_ctx(tmp_path, {"netsim/e.py": """
        def wait_ready(env, node, deadline):
            while not node.ready and env.now < deadline:
                yield env.timeout(1.0)
    """})
    assert analyze_self(ctx) == []


def test_rk303_service_loop_is_clean(tmp_path):
    """A loop that does work per tick is a service loop, not a poll."""
    ctx = make_ctx(tmp_path, {"netsim/e.py": """
        def serve(self, env):
            while self._running:
                self.tick()
                yield env.slotted_timeout(1.0)
    """})
    assert analyze_self(ctx) == []


def test_rk303_while_true_is_clean(tmp_path):
    ctx = make_ctx(tmp_path, {"netsim/e.py": """
        def heartbeat(env):
            while True:
                yield env.timeout(5.0)
    """})
    assert analyze_self(ctx) == []


# -- RK304: order-sensitive float accumulation ---------------------------------


def test_rk304_sum_over_set_name(tmp_path):
    ctx = make_ctx(tmp_path, {"netsim/f.py": """
        def total_rate():
            rates = {1.0, 2.0, 4.0}
            return sum(rates)
    """})
    diags = analyze_self(ctx)
    assert codes(diags) == ["RK304"]


def test_rk304_genexp_over_set_call(tmp_path):
    """The comprehension iterates the set: one hazard, one code (RK203)."""
    ctx = make_ctx(tmp_path, {"netsim/f.py": """
        def total(flows):
            return sum(f.rate for f in set(flows))
    """})
    assert codes(analyze_self(ctx)) == ["RK203"]


def test_rk304_augassign_under_set_iteration(tmp_path):
    """The ``for`` iterates the set: one hazard, one code (RK203)."""
    ctx = make_ctx(tmp_path, {"netsim/f.py": """
        def total(flows):
            acc = 0.0
            for f in set(flows):
                acc += f.rate
            return acc
    """})
    assert codes(analyze_self(ctx)) == ["RK203"]


def test_rk304_cold_package_is_exempt(tmp_path):
    ctx = make_ctx(tmp_path, {"analysis/f.py": """
        def total(flows):
            return sum(f.rate for f in set(flows))
    """})
    assert analyze_self(ctx) == []


def test_rk304_sorted_iteration_is_clean(tmp_path):
    ctx = make_ctx(tmp_path, {"netsim/f.py": """
        def total(flows):
            return sum(f.rate for f in sorted(flows))
    """})
    assert analyze_self(ctx) == []


# -- self-hosting and determinism ----------------------------------------------


def test_src_repro_is_rk3xx_clean(src_repro_lint):
    """Every RK3xx hazard in our own source was fixed in-tree, so the
    self-linter reports none of them (baseline not applied)."""
    _ctx, diags = src_repro_lint
    assert [d for d in diags if d.code.startswith("RK3")] == []


def test_deep_diagnostics_sorted(tmp_path):
    ctx = make_ctx(tmp_path, {"netsim/g.py": """
        import random
        def b():
            rng = random.Random()
            while not rng:
                yield None
        def a():
            rates = {1.0}
            return sum(rates)
    """})
    diags = analyze_self(ctx)
    assert diags == sorted(diags, key=lambda d: d.sort_key)


def _lint_self_json(hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--self",
         "--format", "json", "--no-baseline"],
        capture_output=True, env=env, cwd=REPO_ROOT,
    )
    return proc.stdout


def test_rk3xx_json_byte_identical_across_hash_seeds():
    """The analyzer output must itself be deterministic: two interpreter
    processes with different hash seeds render identical JSON bytes."""
    first = _lint_self_json("0")
    second = _lint_self_json("424242")
    assert first == second
    doc = json.loads(first)
    # Even with --no-baseline nothing in src/repro rises to error severity.
    assert [d for d in doc["diagnostics"] if d["severity"] == "error"] == []
