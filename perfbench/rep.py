"""One benchmark repetition, run in a fresh interpreter.

``run.py`` launches this script once per repetition, one at a time, so
that no process-level cache (imported modules, interned strings, warmed
allocator arenas) carries from one repetition to the next.  It imports
the simulator from the checkout's ``src``, sets the workload up, times
each segment of the workload, checks the simulated outputs and prints
one JSON line::

    python3 perfbench/rep.py --workload table1 --seed 42 --launched <t> [--profile]

``--launched`` is the ``time.monotonic()`` reading taken by the parent
just before it started this interpreter; set-up time is counted from
there, so it includes interpreter start-up and imports.  Set-up and
the timed segments are sampled by :class:`HostSpeed`, and the JSON
carries each as wall seconds (``*_wall_s``) and as seconds at the
reference host speed.  With ``--profile`` the timed segments run under
``cProfile`` instead, and the JSON carries the per-layer split made by
:mod:`layers`.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PACKAGE = os.path.join(SRC, "repro")

TABLE1_POINTS = (1, 2, 4, 8, 16, 32)
STORM_NODES = 64
FORK_NODES = 4096
FORK_FANOUTS = (64, 256, 1024)
#: payload one node pulls during a reinstall (Table I bytes / n)
NODE_PAYLOAD = 225_565_449.0


class Table1:
    """Table I: reinstall 1..32 nodes, each on a fresh integrated cluster."""

    def imports(self):
        from repro import build_cluster

        self.build_cluster = build_cluster

    def setup(self, seed: int) -> None:
        self.sims = []
        for n in TABLE1_POINTS:
            sim = self.build_cluster(n_compute=n, seed=seed)
            sim.integrate_all()
            self.sims.append(sim)
        self.before = [_server_stats(sim) for sim in self.sims]
        self.reports = []

    def segments(self):
        for n, sim in zip(TABLE1_POINTS, self.sims):
            yield f"n={n}", lambda sim=sim: self.reports.append(sim.reinstall_all())

    def outcome(self) -> dict:
        lines, problems, makespan = [], [], 0.0
        counted = ("events", "requests", "rejected", "queue_timeouts")
        counts = dict.fromkeys(counted, 0)
        for n, sim, before, reports in zip(
            TABLE1_POINTS, self.sims, self.before, self.reports
        ):
            after = _server_stats(sim)
            span = max(r.finished_at for r in reports) - min(
                r.started_at for r in reports
            )
            served = after["bytes_served"] - before["bytes_served"]
            lines.append(f"{n} {span / 60.0!r} {served!r}")
            makespan += span
            bad = [r.host for r in reports if r.failed or not r.finished]
            if len(reports) != n or bad:
                problems.append(f"n={n}: {len(reports)} reports, failed {bad}")
            if abs(served / (n * NODE_PAYLOAD) - 1.0) > 0.05:
                problems.append(f"n={n}: served {served:.0f} bytes")
            for key in counted:
                counts[key] += after[key] - before[key]
        return {
            "text": "\n".join(lines) + "\n",
            "sim_makespan_s": makespan,
            "problems": problems,
            "counts": counts,
        }


def _server_stats(sim) -> dict:
    stats = sim.frontend.install_server.http.admission_stats()
    return {
        "events": sim.env.events_dispatched,
        "requests": stats["requests_served"],
        "rejected": stats["rejected"],
        "queue_timeouts": stats["queue_timeouts"],
        "bytes_served": stats["bytes_served"],
    }


class Storm:
    """A 64-node whole-site power restore with autoscaling."""

    def imports(self):
        from repro.load import StormOptions, run_storm

        self.options, self.run_storm = StormOptions, run_storm

    def setup(self, seed: int) -> None:
        self.opts = self.options(n_nodes=STORM_NODES, seed=seed)
        self.result = None

    def segments(self):
        def storm():
            self.result = self.run_storm(self.opts)

        yield "storm", storm

    def outcome(self) -> dict:
        result = self.result
        report = result.report
        problems = []
        if not result.stable or report["nodes_up"] != STORM_NODES:
            problems.append(
                f"stable={result.stable} nodes_up={report['nodes_up']}"
            )
        counters = result.tracer.metrics.counters

        def total(prefix):
            return int(sum(v for k, v in counters.items() if k.startswith(prefix)))

        return {
            "text": result.slo_json(),
            "sim_makespan_s": result.time_to_stable or 0.0,
            "problems": problems,
            "counts": {
                "events": result.sim.env.events_dispatched,
                "requests": total("http.requests/"),
                "rejected": total("http.rejected/"),
                "queue_timeouts": total("http.queue_timeouts/"),
                "spans": len(result.tracer.spans()),
            },
        }


class Fork:
    """cluster-fork to 4096 nodes, 5% dead, 2% stragglers, three fanouts."""

    def imports(self):
        from repro.exec import ExecLab, ExecOptions, ExecState, LabOptions

        self.lab, self.exec_options = ExecLab, ExecOptions
        self.lab_options, self.states = LabOptions, set(ExecState)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.labs = [
            self.lab(self.lab_options(
                nodes=FORK_NODES, seed=seed,
                dead_fraction=0.05, straggler_fraction=0.02,
            ))
            for _ in FORK_FANOUTS
        ]
        self.reports = []

    def segments(self):
        for fanout, lab in zip(FORK_FANOUTS, self.labs):
            opts = self.exec_options(
                fanout=fanout, command_timeout=60.0, max_retries=2, seed=self.seed
            )
            yield f"fanout={fanout}", lambda lab=lab, opts=opts: (
                self.reports.append(lab.run(exec_options=opts))
            )

    def outcome(self) -> dict:
        problems, makespan, attempts, targets = [], 0.0, 0, 0
        for fanout, report in zip(FORK_FANOUTS, self.reports):
            makespan += report.finished_at - report.started_at
            wanted = set(report.targets)
            states = [r.state for r in report.results.values()]
            if (
                len(wanted) != FORK_NODES
                or set(report.results) != wanted
                or not set(states) <= self.states
                or sum(report.count(s) for s in self.states) != FORK_NODES
            ):
                problems.append(f"fanout={fanout}: targets not classified once")
            attempts += sum(r.attempts for r in report.results.values())
            targets += len(report.targets)
        return {
            "text": "".join(r.render() + "\n" for r in self.reports),
            "sim_makespan_s": makespan,
            "problems": problems,
            "counts": {
                "events": sum(lab.env.events_dispatched for lab in self.labs),
                "exec_attempts": attempts,
                "exec_targets": targets,
            },
        }


#: one probe's duration at the reference host speed, in seconds
PROBE_REFERENCE_S = 350e-6
#: seconds between probes while a region is sampled
PROBE_PERIOD_S = 0.02


def probe() -> None:
    """A fixed slice of pure-Python work: heap pushes and pops, dict updates."""
    heap, table = [], {}
    for i in range(500):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i & 63] = table.get(i & 63, 0) + 1
    while heap:
        heapq.heappop(heap)


class HostSpeed:
    """Samples how fast the host runs Python while a region executes.

    The benchmark host shares its cores, and its speed drifts: the same
    fixed loop takes from 1x to 2.5x its best time, in phases lasting
    from a fraction of a second to tens of seconds.  A best-of-K wall
    time cannot filter phases that long, so each timed region is
    sampled instead: while the context is entered, a ``SIGALRM``
    handler times :func:`probe` every :data:`PROBE_PERIOD_S`.  A
    region's wall time, less the handler's own time, is rescaled by the
    mean probe speed over the region to the time it would have taken at
    the reference speed, where one probe takes :data:`PROBE_REFERENCE_S`.
    Entering again keeps sampling into the same record.
    """

    def __init__(self):
        #: probe speeds, in probes per second
        self.speeds: list[float] = []
        #: seconds spent inside the handler
        self.cost = 0.0

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.speeds.append(1.0 / (t1 - t0))
        self.cost += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, wall_s: float) -> float:
        """``wall_s`` of sampled time, in seconds at the reference speed."""
        if not self.speeds:
            raise RuntimeError("region too short to sample host speed")
        speed = statistics.fmean(self.speeds)
        return (wall_s - self.cost) * speed * PROBE_REFERENCE_S


WORKLOADS = {"table1": Table1, "storm-64": Storm, "fork-4096": Fork}


def _import_repro() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    if not os.path.isdir(PACKAGE):
        sys.exit(f"rep.py: no simulator source at {PACKAGE}")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != PACKAGE:
        sys.exit(f"rep.py: imported repro from {repro.__file__}, not {PACKAGE}")


def main(argv=None) -> int:
    setup_speed = HostSpeed()
    with setup_speed:
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--launched", type=float, required=True)
        parser.add_argument("--profile", action="store_true")
        args = parser.parse_args(argv)

        t_import = time.monotonic()
        _import_repro()
        workload = WORKLOADS[args.workload]()
        workload.imports()
        import_s = time.monotonic() - t_import
        workload.setup(args.seed)
        setup_wall_s = time.monotonic() - args.launched

    # A traced repetition profiles the segments instead of sampling host
    # speed: the sampler's handler would show up in the profile.
    profiler = speed = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    else:
        speed = HostSpeed()
    segments = {}
    for label, step in workload.segments():
        with profiler or speed:
            t0 = time.perf_counter()
            step()
            segments[label] = time.perf_counter() - t0

    out = workload.outcome()
    text = out.pop("text")
    run_wall_s = sum(segments.values())
    out.update(
        workload=args.workload,
        seed=args.seed,
        digest=hashlib.sha256(text.encode()).hexdigest(),
        import_s=import_s,
        setup_wall_s=setup_wall_s,
        setup_s=setup_speed.normalise(setup_wall_s),
        segments=segments,
        run_wall_s=run_wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if speed is not None:
        out.update(run_s=speed.normalise(run_wall_s), probes=len(speed.speeds))
    else:
        import pstats

        from layers import rollup

        stats = pstats.Stats(profiler).stats
        out["layers"] = rollup(stats, PACKAGE)
        out["counts"].update(_call_counts(stats))
    print(json.dumps(out, sort_keys=True))
    return 0


def _call_counts(stats: dict) -> dict:
    """Exact call counts of the fair-share entry points, from the profile."""
    flows = os.path.join(PACKAGE, "netsim", "flows.py")
    counts = {"reallocations": 0, "transfers": 0}
    names = {"_reallocate": "reallocations", "transfer": "transfers"}
    for (filename, _line, func), (_cc, nc, _tt, _ct, _callers) in stats.items():
        if func in names and os.path.abspath(filename) == flows:
            counts[names[func]] += nc
    return counts


if __name__ == "__main__":
    sys.exit(main())
