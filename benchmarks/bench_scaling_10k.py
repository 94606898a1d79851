"""Engine scaling benchmark: 100 / 1k / 10k nodes.

Drives a steady-state cluster workload through the raw netsim layer —
aligned per-node heartbeats (slotted timers), staggered pair-to-pair
bulk transfers, and small periodic fetches from a shared frontend — and
reports events/sec, peak RSS, and wall time per simulated hour at each
scale.  The committed ``BENCH_engine.json`` records the trajectory so
later PRs regress against it; the ``pre_pr`` section holds the same
workload measured against the pre-incremental engine.

Each scale runs in a subprocess so ``ru_maxrss`` is a true per-scale
peak.  The workload also emits a deterministic digest (a sha256 over
every transfer-completion instant), which CI byte-compares across two
runs to catch ordering regressions.  Nothing here gates on speed: the
events/sec are a yardstick, and ``perfbench/`` measures speed.

Usage:
    python bench_scaling_10k.py                    # 100, 1000, 10000
    python bench_scaling_10k.py --nodes 100 1000
    python bench_scaling_10k.py --quick            # CI smoke (50 nodes)
    python bench_scaling_10k.py --record           # rewrite BENCH_engine.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.netsim import Environment, Network, FAST_ETHERNET, GIGABIT_ETHERNET

HEARTBEAT = 10.0
PAIR_SIZE = 40e6
PAIR_THINK = 5.0
FETCH_SIZE = 100e3
FETCH_PERIOD = 600.0

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_engine.json")

#: The same workload measured against the engine before the incremental
#: fair-share/slotted-wakeup work (global progressive filling, O(flows)
#: wakeup scans, per-process timers).  events/sec there counts scheduled
#: events (the old engine had no dispatch counter) — a slight
#: overestimate of its dispatch rate, making speedup claims conservative.
PRE_PR_BASELINE = {
    "100": {"events_per_sec": 24701, "wall_per_sim_hour_s": 4.2, "peak_rss_mb": 22.3},
    "1000": {"events_per_sec": 2876, "wall_per_sim_hour_s": 360.6, "peak_rss_mb": 27.0},
    "10000": {"events_per_sec": 292, "wall_per_sim_hour_s": 35571.4, "peak_rss_mb": 59.0},
}


def build(n_nodes: int, seed: int):
    env = Environment()
    net = Network(env)
    net.attach("frontend", GIGABIT_ETHERNET)
    names = [f"node{i}" for i in range(n_nodes)]
    for name in names:
        net.attach(name, FAST_ETHERNET)
    rng = random.Random(("scaling-bench", seed).__repr__())
    stats = {
        "heartbeats": 0,
        "transfers": 0,
        "fetches": 0,
        "digest": hashlib.sha256(),
    }

    def heartbeat(name):
        host = net.host(name)
        while True:
            host.tx.utilization()
            stats["heartbeats"] += 1
            # All nodes beat in lockstep: one shared heap entry per tick.
            yield env.slotted_timeout(HEARTBEAT)

    def pair_loop(src, dst, start):
        yield start
        while True:
            flow = net.send(src, dst, PAIR_SIZE, label=f"{src}->{dst}")
            yield flow.done
            stats["transfers"] += 1
            stats["digest"].update(repr(env.now).encode())
            yield env.timeout(PAIR_THINK)

    def fetch_loop(name, start):
        yield start
        while True:
            flow = net.send("frontend", name, FETCH_SIZE, label=f"fetch:{name}")
            yield flow.done
            stats["fetches"] += 1
            stats["digest"].update(repr(env.now).encode())
            yield env.timeout(FETCH_PERIOD)

    for name in names:
        env.process(heartbeat(name), name=f"hb:{name}")
    # Staggered first wakeups, all created before any loop starts.
    pair_span = PAIR_SIZE / FAST_ETHERNET + PAIR_THINK
    pair_names = [(names[i], names[i + 1]) for i in range(0, n_nodes - 1, 2)]
    pair_starts = [env.timeout(rng.uniform(0.0, pair_span)) for _ in pair_names]
    for (src, dst), start in zip(pair_names, pair_starts):
        env.process(pair_loop(src, dst, start), name=f"pair:{src}")
    fetch_starts = [env.timeout(rng.uniform(0.0, FETCH_PERIOD)) for _ in names]
    for name, start in zip(names, fetch_starts):
        env.process(fetch_loop(name, start), name=f"fetch:{name}")
    return env, net, stats


def run_scale(n_nodes: int, warmup: float, measure: float, seed: int) -> dict:
    env, net, stats = build(n_nodes, seed)
    env.run(until=warmup)
    dispatched0 = env.events_dispatched
    scheduled0 = next(env._seq)
    t0 = time.perf_counter()
    env.run(until=warmup + measure)
    wall = time.perf_counter() - t0
    dispatched = env.events_dispatched - dispatched0
    scheduled = next(env._seq) - scheduled0 - 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "nodes": n_nodes,
        "sim_seconds": measure,
        "wall_seconds": round(wall, 3),
        "events_dispatched": dispatched,
        "events_scheduled": scheduled,
        "events_per_sec": round(dispatched / wall) if wall > 0 else None,
        "scheduled_per_sec": round(scheduled / wall) if wall > 0 else None,
        "wall_per_sim_hour_s": round(wall / measure * 3600.0, 1),
        "peak_rss_mb": round(peak_rss_mb, 1),
        "transfers": stats["transfers"],
        "heartbeats": stats["heartbeats"],
        "fetches": stats["fetches"],
        "active_flows_at_end": net.flows.active_flows,
        "queue_len_at_end": len(env._queue),
        "digest": stats["digest"].hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, nargs="+", default=[100, 1000, 10000])
    parser.add_argument("--warmup", type=float, default=30.0)
    parser.add_argument("--measure", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: 50 nodes, short window"
    )
    parser.add_argument(
        "--record", action="store_true", help=f"rewrite {os.path.basename(BENCH_PATH)}"
    )
    parser.add_argument(
        "--digest-file", help="write the deterministic digests (one line per scale)"
    )
    parser.add_argument(
        "--single",
        type=int,
        help="internal: run one scale in-process and print JSON",
    )
    args = parser.parse_args()
    if args.quick:
        args.nodes = [50]
        args.warmup = 5.0
        args.measure = 20.0

    if args.single is not None:
        result = run_scale(args.single, args.warmup, args.measure, args.seed)
        print(json.dumps(result))
        return 0

    results = []
    for n in args.nodes:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--single",
            str(n),
            "--warmup",
            str(args.warmup),
            "--measure",
            str(args.measure),
            "--seed",
            str(args.seed),
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(result)
        print(
            f"nodes={result['nodes']:>6}  events/sec={result['events_per_sec']:>8}  "
            f"wall/sim-hour={result['wall_per_sim_hour_s']:>8.1f}s  "
            f"peak RSS={result['peak_rss_mb']:>7.1f}MB  "
            f"transfers={result['transfers']}  digest={result['digest'][:16]}"
        )

    pre_1k = PRE_PR_BASELINE["1000"]["events_per_sec"]
    for result in results:
        if result["nodes"] >= 10000:
            speedup = result["scheduled_per_sec"] / pre_1k
            print(
                f"10k-node run: {result['scheduled_per_sec']} scheduled events/sec "
                f"= {speedup:.1f}x the pre-PR engine at 1k nodes ({pre_1k})"
            )

    if args.digest_file:
        with open(args.digest_file, "w") as fh:
            for result in results:
                fh.write(f"{result['nodes']} {result['digest']}\n")

    if args.record:
        payload = {
            "schema": "repro/bench-engine@1",
            "workload": {
                "heartbeat_s": HEARTBEAT,
                "pair_transfer_bytes": PAIR_SIZE,
                "pair_think_s": PAIR_THINK,
                "fetch_bytes": FETCH_SIZE,
                "fetch_period_s": FETCH_PERIOD,
                "warmup_s": args.warmup,
                "measure_s": args.measure,
                "seed": args.seed,
            },
            "pre_pr": PRE_PR_BASELINE,
            "results": results,
        }
        with open(BENCH_PATH, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {BENCH_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
