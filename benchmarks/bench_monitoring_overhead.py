"""The monitoring tax: what does watching the cluster cost?

Ganglia's pitch (and §2's praise for SCE's monitor) only works if the
observer does not perturb the experiment.  Our gmond/gmetad stack is
*purely observational by construction*: agents read machine state and
publish over a synchronous multicast primitive that adds no flows to
the fluid-flow network, so a monitored Table I campaign must produce
**bit-identical simulated results** to an unmonitored one — a much
stronger claim than "low overhead", and asserted here per node.

The only cost monitoring is allowed is host-side compute, and that must
stay **under 5%** at Table I scale (32 nodes).  Wall-clock cannot
honestly resolve 5% on shared or virtualized hardware — on a noisy CI
box the same campaign's runtime swings far more than that between
back-to-back runs — so the asserted metric is *interpreter work*: total
function calls executed during the campaign, counted with the profiler
and byte-reproducible for a given seed.  Each side is counted in a fresh
interpreter, so no campaign run earlier in the process (a warm-up, the
other side, another benchmark) can pre-pay one-time work such as lazy
imports and cache fills for it.  That proxy is conservative:
the monitoring stack's calls are tiny leaf operations (list appends,
dict probes), cheaper than the simulator's average call, so the call
ratio overstates the true time ratio.  Wall clock is still measured and
reported, for the curious, but never gates.

With monitoring disabled the stack costs exactly zero: no agents, no
processes, no multicast group — nothing is constructed at all.

Run standalone for a narrated report::

    PYTHONPATH=src python benchmarks/bench_monitoring_overhead.py --quick
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import subprocess
import sys
import time

from helpers import print_rows

FULL_NODES = 32   # Table I scale: where the 5% budget is defined
QUICK_NODES = 8   # observational (bit-identity) check only
REPEATS = 3       # wall-clock repeats (informational)
MAX_OVERHEAD = 0.05  # 5% interpreter-work budget for the monitored run


def _campaign(n_nodes: int, monitored: bool):
    """One Table I campaign; returns (stack, per-node minutes, span min)."""
    from repro import build_cluster
    from repro.monitoring import enable_cluster_monitoring

    sim = build_cluster(n_compute=n_nodes)
    sim.integrate_all()
    stack = None
    if monitored:
        stack = enable_cluster_monitoring(sim.frontend, sim.nodes)
    reports = sim.reinstall_all()
    span = (
        max(r.finished_at for r in reports)
        - min(r.started_at for r in reports)
    ) / 60
    per_node = [
        round(r.minutes, 9) for r in sorted(reports, key=lambda r: r.host)
    ]
    return stack, per_node, span


def _count(n_nodes: int, monitored: bool) -> None:
    """One campaign under the deterministic work counter; prints JSON.

    Runs in the fresh interpreter :func:`_work` starts.  The package is
    imported before counting, since imports are not campaign work.  GC
    is pinned off during the count: abandoned generators collected
    mid-run would otherwise execute cleanup frames at arbitrary points
    and break run-to-run reproducibility of the call count.  The count
    sums the profiler's raw entries: ``pstats`` keys them by
    ``(file, line, name)`` and keeps one of each colliding group (every
    dataclass ``__init__`` reads ``<string>:2``), so its total drifts
    between runs of the same tree.
    """
    import repro.monitoring  # noqa: F401

    gc.disable()
    try:
        prof = cProfile.Profile()
        prof.enable()
        stack, per_node, span = _campaign(n_nodes, monitored)
        prof.disable()
    finally:
        gc.enable()
    print(json.dumps({
        "calls": sum(entry.callcount for entry in prof.getstats()),
        "nodes": per_node,
        "span": span,
        "packets": stack.aggregator.packets_received if stack else 0,
        "series": stack.store.n_series if stack else 0,
    }))


def _work(n_nodes: int, monitored: bool) -> dict:
    """Count one campaign's calls in a fresh interpreter (see _count)."""
    import repro

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (f"import bench_monitoring_overhead as b; "
            f"b._count({n_nodes}, {monitored})")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([here, src])),
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _wall(n_nodes: int, monitored: bool, repeats: int) -> float:
    """Best-of-N wall clock, unprofiled (informational only)."""
    best = None
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        _campaign(n_nodes, monitored)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def _compare(n_nodes: int, repeats: int = REPEATS):
    plain = _work(n_nodes, False)
    mon = _work(n_nodes, True)
    plain_s = _wall(n_nodes, False, repeats)
    mon_s = _wall(n_nodes, True, repeats)
    return {
        "packets": mon["packets"],
        "series": mon["series"],
        "plain_nodes": plain["nodes"],
        "mon_nodes": mon["nodes"],
        "plain_span": plain["span"],
        "mon_span": mon["span"],
        "plain_work": plain["calls"],
        "mon_work": mon["calls"],
        "plain_s": plain_s,
        "mon_s": mon_s,
        "overhead": mon["calls"] / plain["calls"] - 1.0,
    }


def _assert_observational(r) -> None:
    # The load-bearing claim: monitoring never touches the timeline.
    assert r["mon_nodes"] == r["plain_nodes"]
    assert r["mon_span"] == r["plain_span"]
    # ...while the agents really were watching the whole campaign.
    assert r["packets"] > 0
    assert r["series"] > 0


def bench_monitoring_observational(benchmark):
    """Monitored Table I == unmonitored Table I, bit for bit, per node."""
    r = benchmark.pedantic(
        _compare, args=(QUICK_NODES,), kwargs={"repeats": 1},
        rounds=1, iterations=1,
    )
    _assert_observational(r)
    benchmark.extra_info["span_minutes"] = round(r["mon_span"], 3)
    benchmark.extra_info["series"] = r["series"]


def bench_monitoring_work_budget(benchmark):
    """At Table I scale the agents add <5% deterministic interpreter work."""
    r = benchmark.pedantic(
        _compare, args=(FULL_NODES,), kwargs={"repeats": 1},
        rounds=1, iterations=1,
    )
    _assert_observational(r)
    benchmark.extra_info["plain_calls"] = r["plain_work"]
    benchmark.extra_info["monitored_calls"] = r["mon_work"]
    benchmark.extra_info["overhead_pct"] = round(100 * r["overhead"], 2)
    assert r["overhead"] < MAX_OVERHEAD


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=FULL_NODES,
                        help="cluster size (the 5%% budget is defined at "
                             f"{FULL_NODES}; tiny clusters read high because "
                             "the per-packet cost is fixed)")
    parser.add_argument("--repeats", type=int, default=REPEATS,
                        help="wall-clock repeats (informational)")
    parser.add_argument("--quick", action="store_true",
                        help="single wall-clock repeat (CI smoke test)")
    args = parser.parse_args(argv)
    repeats = 1 if args.quick else args.repeats
    n = args.nodes

    r = _compare(n, repeats=repeats)
    identical = (
        r["mon_nodes"] == r["plain_nodes"] and r["mon_span"] == r["plain_span"]
    )
    under_budget = r["overhead"] < MAX_OVERHEAD
    print_rows(
        f"Monitoring overhead: {n} nodes "
        f"(wall = best of {repeats}, informational)",
        ("campaign", "sim minutes", "work (calls)", "wall seconds"),
        [
            ("unmonitored", f"{r['plain_span']:.2f}",
             f"{r['plain_work']}", f"{r['plain_s']:.2f}"),
            ("monitored", f"{r['mon_span']:.2f}",
             f"{r['mon_work']}", f"{r['mon_s']:.2f}"),
        ],
    )
    print(f"\nagents heard: {r['packets']} packets "
          f"into {r['series']} series")
    print("simulated results: "
          + ("bit-identical per node" if identical else "DIVERGED"))
    print(f"interpreter-work overhead: {100 * r['overhead']:+.2f}% "
          f"(budget {100 * MAX_OVERHEAD:.0f}%): "
          + ("PASS" if identical and under_budget else "FAIL"))
    print(f"wall-clock delta (noisy, not asserted): "
          f"{100 * (r['mon_s'] / r['plain_s'] - 1.0):+.1f}%")
    return 0 if identical and under_budget else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
