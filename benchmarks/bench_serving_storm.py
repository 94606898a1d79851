"""Surviving the install storm: power-restore recovery with autoscaling.

The whole-site power-restore is the worst serving scenario a frontend
faces: every node boots at once and the herd DHCPs, kickstarts, and
pulls its full distribution against one httpd (§6.1).  This benchmark
replays that scenario twice — once with the gauge-driven autoscaler
adding install-server replicas behind the load balancer, once with the
hardened-but-fixed-capacity baseline — and gates on the headline claim:

* the autoscaled run reaches a *stable cluster* (every node installed
  and UP, shedding quiesced) within the deadline;
* the baseline either never stabilises or takes >= 2x as long.

The SLO trajectory (p99 install-HTTP latency, shed counts,
time-to-stable, the scale-event timeline) is canonical JSON —
byte-identical for the same seed — and ``--record`` writes it to
``BENCH_serving.json``; a bench checks the two runs still reproduce
that file byte for byte.

Run standalone for a narrated report at the 64 nodes the claim is made
for (CI runs exactly this)::

    PYTHONPATH=src python benchmarks/bench_serving_storm.py
"""

from __future__ import annotations

import os

from helpers import print_rows
from repro.load import StormOptions, run_storm, slo_json

STORM_NODES = 64
SEED = 42
BENCH_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_serving.json"
)

_cache: dict = {}


def _run(n_nodes: int, autoscale: bool, seed: int = SEED):
    key = (n_nodes, autoscale, seed)
    if key not in _cache:
        _cache[key] = run_storm(
            StormOptions(n_nodes=n_nodes, seed=seed, autoscale=autoscale))
    return _cache[key]


def _verdict(auto, base) -> dict:
    """The acceptance comparison between the two runs."""
    speedup = None
    if auto.stable and base.stable:
        speedup = base.time_to_stable / auto.time_to_stable
    return {
        "autoscaled_stable": auto.stable,
        "baseline_stable": base.stable,
        "autoscaled_time_to_stable_s": auto.time_to_stable,
        "baseline_time_to_stable_s": base.time_to_stable,
        "baseline_vs_autoscaled_x": (
            round(speedup, 3) if speedup is not None else None
        ),
        "accepted": auto.stable and (not base.stable or speedup >= 2.0),
    }


def bench_storm_autoscaled_recovers(benchmark):
    """64-node power restore: the autoscaled frontend reaches stability."""
    result = benchmark.pedantic(
        _run, args=(STORM_NODES, True), rounds=1, iterations=1
    )
    rep = result.report
    benchmark.extra_info["time_to_stable_s"] = rep["time_to_stable_s"]
    benchmark.extra_info["p99_s"] = rep["http"]["p99_s"]
    benchmark.extra_info["shed_total"] = rep["shed"]["total"]
    benchmark.extra_info["peak_replicas"] = rep["autoscaler"]["peak_replicas"]
    assert result.stable
    assert rep["nodes_up"] == STORM_NODES
    # the scaler actually acted — this is not a trivially survivable storm
    assert rep["autoscaler"]["actions"] >= 1
    assert rep["autoscaler"]["peak_replicas"] >= 1


def bench_storm_baseline_stalls_or_2x(benchmark):
    """Fixed-capacity baseline: stalls, or >= 2x slower to stability."""

    def run_both():
        return _run(STORM_NODES, True), _run(STORM_NODES, False)

    auto, base = benchmark.pedantic(run_both, rounds=1, iterations=1)
    verdict = _verdict(auto, base)
    benchmark.extra_info.update(verdict)
    assert verdict["accepted"], verdict
    print_rows(
        f"Install storm: {STORM_NODES} nodes, whole-site power restore",
        ("frontend", "stable", "time-to-stable", "shed", "p99 (s)"),
        [_row(auto, "autoscaled"), _row(base, "baseline")],
    )


def bench_storm_trajectory_matches_committed(benchmark):
    """Both 64-node runs reproduce the committed BENCH_serving.json."""
    payload = benchmark.pedantic(
        lambda: slo_json(trajectory(STORM_NODES)), rounds=1, iterations=1
    )
    with open(BENCH_PATH) as fh:
        assert payload == fh.read()


def _row(result, label):
    rep = result.report
    return (
        label,
        "yes" if rep["stable"] else "NO",
        (
            f"{rep['time_to_stable_s']:.0f}s"
            if rep["time_to_stable_s"] is not None
            else f"> deadline ({rep['nodes_up']}/{rep['n_nodes']} up)"
        ),
        str(rep["shed"]["total"]),
        f"{rep['http']['p99_s']:.1f}",
    )


def trajectory(n_nodes: int, seed: int = SEED) -> dict:
    """The BENCH_serving.json payload: both runs plus the verdict."""
    auto = _run(n_nodes, True, seed)
    base = _run(n_nodes, False, seed)
    return {
        "benchmark": "serving_storm",
        "scenario": "whole-site power restore",
        "autoscaled": auto.report,
        "baseline": base.report,
        "verdict": _verdict(auto, base),
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=STORM_NODES)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--record", metavar="PATH",
                        help="write the SLO trajectory as canonical JSON")
    args = parser.parse_args(argv)
    n = args.nodes

    auto = _run(n, True, args.seed)
    base = _run(n, False, args.seed)
    print(auto.render())
    print()
    print(base.render())
    verdict = _verdict(auto, base)
    print_rows(
        f"Install storm: {n} nodes, whole-site power restore",
        ("frontend", "stable", "time-to-stable", "shed", "p99 (s)"),
        [_row(auto, "autoscaled"), _row(base, "baseline")],
    )
    if args.record:
        payload = slo_json(trajectory(n, args.seed))
        with open(args.record, "w") as fh:
            fh.write(payload)
        print(f"\nwrote {args.record}")
    ok = verdict["accepted"]
    label = verdict["baseline_vs_autoscaled_x"]
    print("\nautoscaled vs baseline: "
          + (f"{label}x faster to stable; " if label else "baseline stalled; ")
          + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
