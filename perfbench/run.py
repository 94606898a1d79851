"""End-to-end and per-layer benchmark of the simulator's real scenarios.

Runs one workload -- ``table1``, ``storm-64`` or ``fork-4096`` (see
README.md) -- as repeated fresh-interpreter repetitions of ``rep.py``,
one at a time, until ``--seconds`` have passed.  Every repetition's
outputs are checked: against the committed sha256 in ``digests.json``
for the default seed, against invariants for any other seed.

    python3 perfbench/run.py --workload table1 --seed 42 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` each round also
runs a ``cProfile``-traced repetition and the metrics are the per-layer
split.  The line before it records every raw repetition, the load
average and the CPU count.  The exit code is 1 when an output check
failed, and 2 (with no result line) when a repetition could not run.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time

from layers import LAYERS, OTHER, UNATTRIBUTED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("table1", "storm-64", "fork-4096")
DEFAULT_SEED = 42
#: wall-clock limit of one repetition, traced or not
REP_TIMEOUT = 120.0


class RepetitionError(RuntimeError):
    """A repetition exited nonzero, timed out or printed no result."""


def repetition(workload: str, seed: int, profile: bool) -> dict:
    """Run ``rep.py`` once in a fresh interpreter; return its JSON."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", workload, "--seed", str(seed)]
    if profile:
        cmd.append("--profile")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [*cmd, "--launched", repr(time.monotonic())],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise RepetitionError(f"repetition timed out after {exc.timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepetitionError(
            f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    rep = json.loads(lines[-1])
    rep["traced"] = profile
    return rep


def failures(reps: list[dict], expected) -> list[str]:
    """Why each failed repetition failed; empty when all passed.

    ``expected`` is the committed digest for the default seed, or None
    when only the invariants apply.  Every repetition, traced or not,
    must also reproduce the first repetition's digest.
    """
    first = reps[0]["digest"]
    out = []
    for i, rep in enumerate(reps):
        why = list(rep["problems"])
        if expected is not None and rep["digest"] != expected:
            why.append(f"digest {rep['digest']} != committed {expected}")
        if rep["digest"] != first:
            why.append(f"digest {rep['digest']} != repetition 0's {first}")
        if why:
            out.append(f"repetition {i}: " + "; ".join(why))
    return out


def fastest(reps: list[dict]) -> float:
    """Wall seconds: sum over segments of each segment's fastest repetition."""
    return sum(
        min(rep["segments"][label] for rep in reps) for label in reps[0]["segments"]
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(reps: list[dict]) -> dict:
    """Medians over the repetitions; times at the reference host speed."""
    def median(key):
        return statistics.median(rep[key] for rep in reps)

    return {
        "run_s": (median("run_s"), "s"),
        "setup_s": (median("setup_s"), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "sim_makespan_s": (reps[0]["sim_makespan_s"], "s"),
    }


def per_layer(reps: list[dict], traced: list[dict]) -> dict:
    best = min(traced, key=lambda r: r["run_wall_s"])
    # a workload reports only the counts its layers have; the rest are 0
    layers, counts = best["layers"], collections.Counter(best["counts"])
    out = {f"{name}.self_s": (layers[name], "s")
           for name in (*LAYERS, OTHER, UNATTRIBUTED)}
    out.update({
        "profile.total_s": (layers["total"], "s"),
        "traced.run_s": (fastest(traced), "s"),
        "untraced.run_s": (fastest(reps), "s"),
        "import.s": (min(r["import_s"] for r in reps + traced), "s"),
        "netsim.flows.reallocations": (counts["reallocations"], "count"),
        "netsim.flows.transfers": (counts["transfers"], "count"),
        "netsim.flows.us_per_reallocation": (
            1e6 * _ratio(layers["netsim.flows"], counts["reallocations"]), "us"),
        "netsim.engine.events": (counts["events"], "count"),
        "netsim.engine.us_per_event": (
            1e6 * _ratio(layers["netsim.engine"], counts["events"]), "us"),
        "netsim.http.requests": (counts["requests"], "count"),
        "netsim.http.rejected": (counts["rejected"], "count"),
        "netsim.http.queue_timeouts": (counts["queue_timeouts"], "count"),
        "netsim.http.served_ratio": (
            _ratio(counts["requests"], counts["requests"] + counts["rejected"]),
            "ratio"),
        "exec.attempts": (counts["exec_attempts"], "count"),
        "exec.useful_ratio": (
            _ratio(counts["exec_targets"], counts["exec_attempts"]), "ratio"),
        "telemetry.spans": (counts["spans"], "count"),
        "telemetry.us_per_span": (
            1e6 * _ratio(layers["telemetry"], counts["spans"]), "us"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no simulator source under {ROOT}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "digests.json")) as fh:
        expected = json.load(fh)
    committed = (
        expected[args.workload] if args.seed == expected["seed"] else None
    )

    load_before = os.getloadavg()
    start = time.monotonic()
    reps, traced = [], []
    try:
        while True:
            reps.append(repetition(args.workload, args.seed, False))
            if args.trace:
                traced.append(repetition(args.workload, args.seed, True))
            if time.monotonic() - start >= args.seconds:
                break
    except RepetitionError as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 2

    every = reps + traced
    failed = failures(every, committed)
    for line in failed:
        print(f"run.py: {args.workload}: FAIL {line}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": every[0]["digest"],
        "fail_share": len(failed) / len(every),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "repetitions": [
            {key: rep.get(key) for key in (
                "traced", "import_s", "setup_wall_s", "setup_s", "run_wall_s",
                "run_s", "segments", "probes", "peak_rss_mb", "digest")}
            for rep in every
        ],
    }
    print(json.dumps(detail, sort_keys=True))
    metrics = per_layer(reps, traced) if args.trace else end_to_end(reps)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
