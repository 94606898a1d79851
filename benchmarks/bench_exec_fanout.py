"""Parallel-exec fanout sweep: completion time vs window size.

Runs the same 4096-node command fork (5% dead nodes, 2% stragglers)
through :class:`repro.exec.ExecTask` at fanout 64 / 256 / 1024 and
reports, per point:

  * simulated completion time (launch of first worker to last terminal
    classification).  The stragglers' 10x slow commands set its floor:
    a dead node ends NODE_DEAD on its first attempt, so no timeout or
    retry chain runs;
  * wall-clock cost of driving the simulation;
  * the per-state classification counts — every target must land in
    exactly one terminal state at every fanout.  (The counts themselves
    shift slightly with the window: a doomed node dispatched earlier
    can finish its command before the PDU cut lands, OK instead of
    NODE_DEAD.  That race is physical, not a bug.)
  * straggler count as flagged by the rolling-percentile monitor.

The sweep is fully seeded: the same invocation produces byte-identical
output, which is what lets EXPERIMENTS.md quote the table verbatim.

Usage:
    python bench_exec_fanout.py                    # 4096 nodes, 64/256/1024
    python bench_exec_fanout.py --nodes 512 --fanout 16 64
    python bench_exec_fanout.py --quick            # CI smoke (256 nodes)
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.exec import ExecLab, ExecOptions, ExecState, LabOptions


def run_point(n_nodes: int, fanout: int, seed: int) -> dict:
    lab = ExecLab(
        LabOptions(
            nodes=n_nodes,
            seed=seed,
            dead_fraction=0.05,
            straggler_fraction=0.02,
        )
    )
    opts = ExecOptions(
        fanout=fanout, command_timeout=60.0, max_retries=2, seed=seed
    )
    t0 = time.perf_counter()
    report = lab.run(exec_options=opts)
    wall = time.perf_counter() - t0
    return {
        "fanout": fanout,
        "sim_s": report.finished_at - report.started_at,
        "wall_s": wall,
        "ok": report.count(ExecState.OK),
        "dead": report.count(ExecState.NODE_DEAD),
        "timeout": report.count(ExecState.TIMEOUT),
        "exhausted": report.count(ExecState.RETRIES_EXHAUSTED),
        "stragglers": len(report.stragglers),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=4096)
    parser.add_argument("--fanout", type=int, nargs="+",
                        default=[64, 256, 1024])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: 256 nodes, fanout 32/128")
    args = parser.parse_args()
    if args.quick:
        args.nodes, args.fanout = 256, [32, 128]

    print(f"exec fanout sweep: {args.nodes} nodes, 5% dead, "
          f"2% stragglers, seed {args.seed}")
    print(f"{'fanout':>6}  {'sim time':>9}  {'wall':>7}  "
          f"{'OK':>5}  {'DEAD':>5}  {'stragglers':>10}")
    for fanout in args.fanout:
        p = run_point(args.nodes, fanout, args.seed)
        print(f"{p['fanout']:>6}  {p['sim_s']:>8.1f}s  {p['wall_s']:>6.2f}s  "
              f"{p['ok']:>5}  {p['dead']:>5}  {p['stragglers']:>10}")
        classified = p["ok"] + p["dead"] + p["timeout"] + p["exhausted"]
        if classified != args.nodes:
            print(f"FAIL: fanout {fanout} classified {classified} of "
                  f"{args.nodes} targets", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
