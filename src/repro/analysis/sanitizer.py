"""Schedule-perturbation sanitizer: a race detector for simulated time.

Every guarantee this repo makes — byte-identical Table I traces, storm
SLO JSON, exec-fabric golden digests — rests on one property: when two
events are scheduled for the same simulated instant, the outcome must
not depend on which dispatches first.  The engine breaks such ties with
a monotone sequence number, which makes runs *reproducible* — but
reproducible is not the same as *race-free*.  Code that accidentally
depends on tie order (PR 7's stale-active bug) replays byte-identically
right up until an unrelated change perturbs the schedule, and then a
golden digest far from the real bug starts flaking.

This module is TSan for the DES.  Two mechanisms, both opt-in:

* **Schedule perturbation** — a :class:`SanitizedEnvironment` (built
  explicitly, or by every ``Environment()`` inside :func:`sanitized`)
  breaks ties among same-timestamp events with a seeded RNG instead of
  the arrival sequence.  Same-tick events are logically *concurrent*: any
  dispatch order is a legal execution, so if two perturbation seeds
  produce different scenario digests, a scheduling race is **proven** —
  no false positives.  Each dispatch is logged with the event's
  scheduling stack, so :func:`diagnose_divergence` can report the
  colliding event pair and the first divergent simulated timestamp.

* **Runtime traps** — inside a :func:`sanitized` session, module-level
  ``random.*`` calls (RK311) and wall-clock reads (RK312) are
  intercepted and reported as diagnostics through the standard
  :class:`~repro.analysis.diagnostics.Diagnostic` machinery, and
  classes registered with :meth:`SanitizerSession.watch` get a
  lightweight write-log keyed on ``(id(obj), attr, now)`` that flags an
  attribute written by two different processes within one tick (RK313).

The default ``Environment()`` path is untouched: sanitization swaps in
a subclass at construction time, so the unsanitized scheduler and
dispatch loops carry zero extra instructions (see
``bench_scaling_10k.py --quick``'s overhead guard).
"""

from __future__ import annotations

import hashlib
import heapq
import random
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from ..netsim.engine import (
    Environment,
    Event,
    InstrumentedEnvironment,
    Process,
    SimulationError,
    Timeout,
    instrumented,
)
from .diagnostics import Diagnostic, SourceLocation, code_info

__all__ = [
    "SanitizeOptions",
    "SanitizedEnvironment",
    "SanitizerSession",
    "sanitized",
    "DispatchRecord",
    "RaceReport",
    "ScenarioRun",
    "SCENARIOS",
    "run_scenario",
    "diagnose_divergence",
]


_REPO_ROOT = Path(__file__).resolve().parents[3]
_THIS_FILE = __file__
#: scheduling-stack frames kept per dispatched event
_STACK_DEPTH = 5


@dataclass(frozen=True)
class SanitizeOptions:
    """How aggressively to sanitize.

    ``seed`` drives the tie-break perturbation: two runs with different
    seeds explore two different (equally legal) dispatch orders of every
    same-tick event population.  ``record_stacks`` captures a scheduling
    stack per event for race reports; turn it off for very large
    scenarios where the digest verdict alone is enough.
    """

    seed: int = 0
    record_stacks: bool = True


@dataclass(frozen=True)
class DispatchRecord:
    """One dispatched event: when, what, and who scheduled it."""

    t: float
    label: str        # e.g. "Process(installer:node0)" / "Timeout+10.0"
    site: str         # innermost non-engine frame at schedule time
    stack: tuple[str, ...] = ()

    @property
    def key(self) -> tuple[str, str]:
        """Identity used to match records across perturbed runs."""
        return (self.label, self.site)


def _relpath(filename: str) -> str:
    try:
        return Path(filename).resolve().relative_to(_REPO_ROOT).as_posix()
    except ValueError:
        return filename


def _event_label(event: Event) -> str:
    if isinstance(event, Process):
        return f"Process({event.name})"
    if isinstance(event, Timeout):
        return f"Timeout+{event.delay!r}"
    return type(event).__name__


class SanitizedEnvironment(InstrumentedEnvironment):
    """An :class:`Environment` with seeded-random same-tick tie-breaks.

    Heap entries are ``(time, (perturbation, seq), event)`` — the seeded
    32-bit perturbation dominates the sequence number, so events due at
    the same instant dispatch in a seed-dependent order while distinct
    instants keep their causal order.  The trailing sequence number
    keeps keys unique (events are never compared) and keeps a single
    run fully deterministic for its seed.

    Every dispatch is appended to :attr:`dispatch_log`; every scheduled
    event's scheduling stack is captured so a divergence can be
    explained, not just detected.

    ``options`` defaults to the active :func:`sanitized` session's, or
    to ``SanitizeOptions()`` outside one.
    """

    __slots__ = ("options", "dispatch_log", "_pert", "_meta", "_session")

    #: outranks the profiler when both sessions are active
    precedence = 1

    def __init__(self, initial_time: float = 0.0,
                 options: Optional[SanitizeOptions] = None):
        session = _ACTIVE_SESSION
        if options is None:
            options = (session.options if session is not None
                       else SanitizeOptions())
        super().__init__(initial_time)
        self.options = options
        self.dispatch_log: list[DispatchRecord] = []
        self._pert = random.Random(("perturb", options.seed).__repr__())
        #: Event -> (label, site, stack), captured at schedule time
        self._meta: dict[Event, tuple[str, str, tuple[str, ...]]] = {}
        self._session = session
        if session is not None:
            session.envs.append(self)

    # -- scheduling with perturbed tie-breaks ------------------------------
    _INTERNAL_FRAMES = frozenset(
        {"_capture", "_schedule", "timeout_batch", "step"})

    def _capture(self) -> tuple[str, tuple[str, ...]]:
        """(site, stack) of the schedule call, machinery frames dropped."""
        raw = traceback.extract_stack()
        frames = [
            f for f in raw
            if "netsim/engine" not in f.filename.replace("\\", "/")
            and not (f.filename == _THIS_FILE
                     and f.name in self._INTERNAL_FRAMES)
        ]
        trimmed = frames[-_STACK_DEPTH:]
        rendered = tuple(
            f"{_relpath(f.filename)}:{f.lineno} in {f.name}"
            for f in reversed(trimmed)
        )
        site = rendered[0] if rendered else "<unknown>"
        if not self.options.record_stacks:
            return site, ()
        return site, rendered

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        event._scheduled = True
        if event._cancelled:
            self._n_cancelled += 1
        if event not in self._meta:
            site, stack = self._capture()
            label = _event_label(event)
            active = self._active_process
            if active is not None:
                label = f"{label} by {active.name}"
            self._meta[event] = (label, site, stack)
        heapq.heappush(
            self._queue,
            (self._now + delay,
             (self._pert.getrandbits(32), next(self._seq)),
             event),
        )

    def timeout_batch(self, delays: Iterable[float],
                      value: Any = None) -> list[Timeout]:
        # The base class pushes raw (due, seq, event) entries; sanitized
        # heaps need perturbed keys, so fall back to one-by-one creation
        # (identical semantics and sequence-number order, just slower).
        return [Timeout(self, delay, value) for delay in delays]

    # -- dispatch with logging ---------------------------------------------
    def step(self) -> None:
        if not self._queue:
            raise SimulationError("no more events to step through")
        when, _, event = heapq.heappop(self._queue)
        self._now = when
        meta = self._meta.pop(event, None)
        if event._cancelled:
            self._n_cancelled -= 1
            event._scheduled = False
            return
        if meta is None:
            meta = (_event_label(event), "<unknown>", ())
        self.dispatch_log.append(
            DispatchRecord(when, meta[0], meta[1], meta[2])
        )
        callbacks, event.callbacks = event.callbacks, []
        event._scheduled = False
        self.events_dispatched += 1
        for cb in callbacks:
            cb(event)


# -- the session: traps + write log -----------------------------------------------

_ACTIVE_SESSION: Optional["SanitizerSession"] = None

#: module-level random functions routed through the shared global RNG
_TRAPPED_RANDOM = (
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "getrandbits", "gauss", "expovariate",
    "betavariate", "normalvariate", "triangular", "vonmisesvariate",
    "paretovariate", "weibullvariate",
)
#: wall-clock reads (perf counters are left alone: harnesses time walls)
_TRAPPED_TIME = ("time", "time_ns")


def _caller_site() -> tuple[str, int]:
    frame = sys._getframe(2)
    return _relpath(frame.f_code.co_filename), frame.f_lineno


class SanitizerSession:
    """Collects runtime-trap diagnostics for one sanitized region."""

    def __init__(self, options: SanitizeOptions):
        self.options = options
        #: sanitized environments constructed while this session is active
        self.envs: list[SanitizedEnvironment] = []
        self._diagnostics: list[Diagnostic] = []
        self._seen: set[tuple[str, str, int]] = set()
        #: (id(obj), attr) -> (tick, writer) — the same-tick write log
        self._write_log: dict[tuple[int, str], tuple[float, str]] = {}
        self._watched: list[tuple[type, Optional[Callable]]] = []
        self._saved_traps: list[tuple[Any, str, Callable]] = []

    # -- diagnostics ------------------------------------------------------
    @property
    def current_env(self) -> Optional[SanitizedEnvironment]:
        return self.envs[-1] if self.envs else None

    def diagnostics(self) -> list[Diagnostic]:
        """Sorted, deterministic trap findings."""
        return sorted(self._diagnostics, key=lambda d: d.sort_key)

    def _diag_once(self, code: str, message: str,
                   site: tuple[str, int], hint: str = "", **data) -> None:
        key = (code, site[0], site[1])
        if key in self._seen:
            return
        self._seen.add(key)
        self._diagnostics.append(Diagnostic(
            code=code,
            severity=code_info(code).severity,
            message=message,
            location=SourceLocation(site[0], site[1]),
            hint=hint,
            data=data,
        ))

    # -- random / wall-clock traps ----------------------------------------
    def _install_traps(self) -> None:
        for name in _TRAPPED_RANDOM:
            orig = getattr(random, name)

            def trap(*args, __orig=orig, __name=name, **kwargs):
                self._diag_once(
                    "RK311",
                    f"random.{__name}() drew from the unseeded "
                    f"module-level RNG at runtime",
                    _caller_site(),
                    hint="use a seeded random.Random(seed) instance; the "
                         "shared global RNG makes replay seed-dependent",
                    call=f"random.{__name}",
                )
                return __orig(*args, **kwargs)

            setattr(random, name, trap)
            self._saved_traps.append((random, name, orig))
        for name in _TRAPPED_TIME:
            orig = getattr(time, name)

            def trap(*args, __orig=orig, __name=name, **kwargs):
                self._diag_once(
                    "RK312",
                    f"time.{__name}() wall-clock read at runtime under a "
                    f"sanitized environment",
                    _caller_site(),
                    hint="read env.now (simulated time) instead",
                    call=f"time.{__name}",
                )
                return __orig(*args, **kwargs)

            setattr(time, name, trap)
            self._saved_traps.append((time, name, orig))

    def _remove_traps(self) -> None:
        for module, name, orig in reversed(self._saved_traps):
            setattr(module, name, orig)
        self._saved_traps.clear()

    # -- cross-process same-tick write log --------------------------------
    def watch(self, cls: type) -> None:
        """Log every attribute write on ``cls`` instances.

        Two *different* writers (processes, or a process and a dispatch
        callback) writing the same ``(object, attribute)`` within one
        simulated tick is flagged as RK313: whichever write lands last
        wins, and which one that is depends on tie-break order — the
        write-write shape of a scheduling race.  Writes mediated by a
        deterministic owner (e.g. the flow network crediting its flows)
        should not be watched; this trap is for state shared *between*
        processes.
        """
        own = cls.__dict__.get("__setattr__")
        effective = cls.__setattr__
        session = self

        def traced(obj, name, value, __orig=effective, __cls=cls):
            env = session.current_env
            if env is not None:
                ap = env._active_process
                writer = ap.name if ap is not None else "<dispatch>"
                key = (id(obj), name)
                now = env._now
                prev = session._write_log.get(key)
                if (prev is not None and prev[0] == now
                        and prev[1] != writer):
                    frame = sys._getframe(1)
                    session._diag_once(
                        "RK313",
                        f"{__cls.__name__}.{name} written by "
                        f"{prev[1]!r} and then {writer!r} within one "
                        f"tick (t={now:g})",
                        (_relpath(frame.f_code.co_filename),
                         frame.f_lineno),
                        hint="route the write through a single owner, or "
                             "make the update commutative — last-writer-"
                             "wins under a tie is a scheduling race",
                        attr=name, tick=now,
                        writers=sorted([prev[1], writer]),
                    )
                session._write_log[key] = (now, writer)
            __orig(obj, name, value)

        cls.__setattr__ = traced
        self._watched.append((cls, own))

    def _unwatch_all(self) -> None:
        for cls, own in reversed(self._watched):
            if own is None:
                delattr(cls, "__setattr__")
            else:
                setattr(cls, "__setattr__", own)
        self._watched.clear()


@contextmanager
def sanitized(options: Optional[SanitizeOptions] = None,
              watch: Iterable[type] = ()):
    """Run a region under the sanitizer.

    Inside the block every ``Environment()`` constructed anywhere — in
    ``build_cluster``, ``run_storm``, a test fixture — becomes a
    :class:`SanitizedEnvironment` with the given options, and the
    runtime traps are armed.  Yields the :class:`SanitizerSession`
    holding the per-environment dispatch logs and trap diagnostics.
    """
    global _ACTIVE_SESSION
    opts = options if options is not None else SanitizeOptions()
    session = SanitizerSession(opts)
    prev_session = _ACTIVE_SESSION
    _ACTIVE_SESSION = session
    session._install_traps()
    for cls in watch:
        session.watch(cls)
    try:
        with instrumented(SanitizedEnvironment):
            yield session
    finally:
        session._unwatch_all()
        session._remove_traps()
        _ACTIVE_SESSION = prev_session


# -- scenarios --------------------------------------------------------------------


def _scenario_race_fixture(n: int) -> str:
    """A planted same-tick race: n processes mutate shared state at t=10.

    Every worker's timeout is due at the same instant, so their wakeups
    are logically concurrent — and both the append order and the
    non-associative float update make the outcome depend on dispatch
    order.  This is the positive control: the sanitizer must catch it.
    """
    env = Environment()  # ambient sanitize makes this a SanitizedEnvironment
    order: list[int] = []
    shared = [0.0]

    def worker(i: int):
        yield env.timeout(10.0)
        order.append(i)
        shared[0] = shared[0] * 1.0000001 + i  # order-sensitive

    for i in range(n):
        env.process(worker(i), name=f"racer{i}")
    env.run()
    return repr((order, shared[0])) + "\n"


def _scenario_table1(n: int) -> str:
    """The paper's Table I point: integrate + concurrently reinstall."""
    from .. import build_cluster

    sim = build_cluster(n_compute=n)
    sim.integrate_all()
    reports = sim.reinstall_all()
    lines = [
        f"{r.host} {r.method} {r.started_at!r} {r.finished_at!r}"
        for r in sorted(reports, key=lambda r: r.host)
    ]
    return "\n".join(lines) + "\n"


def _scenario_storm(n: int) -> str:
    """Whole-site power-restore install storm; digest is the SLO JSON."""
    from ..load import StormOptions, run_storm

    result = run_storm(StormOptions(n_nodes=n, seed=42))
    return result.slo_json()


#: name -> (runner, default node count).  Runners return the canonical
#: scenario output whose sha256 is the determinism digest.
SCENARIOS: dict[str, tuple[Callable[[int], str], int]] = {
    "race-fixture": (_scenario_race_fixture, 8),
    "table1": (_scenario_table1, 8),
    "storm": (_scenario_storm, 12),
}


@dataclass
class ScenarioRun:
    """One scenario execution under one perturbation seed."""

    scenario: str
    perturb_seed: int
    digest: str
    output: str
    dispatch_log: list[DispatchRecord]
    diagnostics: list[Diagnostic] = field(default_factory=list)


def run_scenario(name: str, perturb_seed: int,
                 nodes: Optional[int] = None,
                 record_stacks: bool = True) -> ScenarioRun:
    """Run one named scenario under the sanitizer; digest its output."""
    try:
        runner, default_nodes = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r} (have: {', '.join(sorted(SCENARIOS))})"
        ) from None
    opts = SanitizeOptions(seed=perturb_seed, record_stacks=record_stacks)
    with sanitized(opts) as session:
        output = runner(nodes if nodes is not None else default_nodes)
    log: list[DispatchRecord] = []
    for env in session.envs:
        log.extend(env.dispatch_log)
    return ScenarioRun(
        scenario=name,
        perturb_seed=perturb_seed,
        digest=hashlib.sha256(output.encode("utf-8")).hexdigest(),
        output=output,
        dispatch_log=log,
        diagnostics=session.diagnostics(),
    )


# -- divergence diagnosis ---------------------------------------------------------


@dataclass
class RaceReport:
    """A proven scheduling race: what diverged, where, and which pair."""

    scenario: str
    seeds: tuple[int, int]
    digests: tuple[str, str]
    divergence_time: float
    pair: Optional[tuple[DispatchRecord, DispatchRecord]]
    note: str = ""

    def render(self) -> str:
        a, b = self.seeds
        lines = [
            f"RACE: scenario {self.scenario!r} diverges between "
            f"perturbation seeds {a} and {b}",
            f"  digest (seed {a}): {self.digests[0]}",
            f"  digest (seed {b}): {self.digests[1]}",
            f"  first divergent simulated timestamp: "
            f"t={self.divergence_time:g}",
        ]
        if self.note:
            lines.append(f"  {self.note}")
        if self.pair is not None:
            ra, rb = self.pair
            lines.append("  colliding event pair (same tick, "
                         "perturbation-dependent order):")
            for tag, rec in ((f"seed {a}", ra), (f"seed {b}", rb)):
                lines.append(f"    [{tag}] {rec.label} scheduled at "
                             f"{rec.site}")
                for frame in rec.stack:
                    lines.append(f"        {frame}")
        return "\n".join(lines) + "\n"

    def to_diagnostic(self) -> Diagnostic:
        site = self.pair[0].site if self.pair is not None else "<unknown>"
        file, _, line = site.partition(":")
        lineno = int(line.split(" ")[0]) if line[:1].isdigit() else 0
        return Diagnostic(
            code="RK310",
            severity=code_info("RK310").severity,
            message=(
                f"scenario {self.scenario!r} digest diverges between "
                f"perturbation seeds {self.seeds[0]} and {self.seeds[1]} "
                f"(first divergence at t={self.divergence_time:g})"
            ),
            location=SourceLocation(file, lineno),
            hint="the colliding events are logically concurrent; make "
                 "the outcome independent of their dispatch order",
            data={
                "seeds": list(self.seeds),
                "divergence_time": self.divergence_time,
            },
        )


def _group_by_tick(
    log: list[DispatchRecord],
) -> list[tuple[float, list[DispatchRecord]]]:
    groups: list[tuple[float, list[DispatchRecord]]] = []
    for rec in log:
        if groups and groups[-1][0] == rec.t:
            groups[-1][1].append(rec)
        else:
            groups.append((rec.t, [rec]))
    return groups


def _first_difference(
    a: list[DispatchRecord], b: list[DispatchRecord],
) -> Optional[tuple[DispatchRecord, DispatchRecord]]:
    for ra, rb in zip(a, b):
        if ra.key != rb.key:
            return ra, rb
    return None


def diagnose_divergence(
    run_a: ScenarioRun, run_b: ScenarioRun,
) -> Optional[RaceReport]:
    """Compare two perturbed runs; a digest mismatch is a proven race.

    Same-tick events are concurrent, so two seeds legitimately dispatch
    each tick's population in different orders — a divergence exists
    only when the *digests* differ.  The dispatch logs then localise it:
    the first tick whose event multiset differs bounds the divergence,
    and the last purely-reordered tick at or before it names the
    colliding pair whose swap flipped the outcome.
    """
    if run_a.digest == run_b.digest:
        return None
    seeds = (run_a.perturb_seed, run_b.perturb_seed)
    digests = (run_a.digest, run_b.digest)
    ticks_a = _group_by_tick(run_a.dispatch_log)
    ticks_b = _group_by_tick(run_b.dispatch_log)
    reordered: list[tuple[float, list[DispatchRecord], list[DispatchRecord]]] = []
    divergent_t: Optional[float] = None
    divergent_pair: Optional[tuple[DispatchRecord, DispatchRecord]] = None
    note = ""
    for (ta, ga), (tb, gb) in zip(ticks_a, ticks_b):
        if ta != tb:
            divergent_t = min(ta, tb)
            note = (f"runs schedule different instants from here on "
                    f"(t={ta:g} vs t={tb:g})")
            break
        keys_a = [r.key for r in ga]
        keys_b = [r.key for r in gb]
        if sorted(keys_a) != sorted(keys_b):
            divergent_t = ta
            divergent_pair = _first_difference(ga, gb)
            note = "runs dispatch different event populations at this tick"
            break
        if keys_a != keys_b:
            reordered.append((ta, ga, gb))
    if divergent_t is None and len(ticks_a) != len(ticks_b):
        shorter = min(len(ticks_a), len(ticks_b))
        divergent_t = (ticks_a[shorter][0] if len(ticks_a) > shorter
                       else ticks_b[shorter][0])
        note = "one run schedules events past the other's final instant"
    pair = divergent_pair
    if reordered:
        if divergent_t is None:
            # Outcome diverged while every tick's population matched:
            # the first reordering is the first candidate cause.
            t, ga, gb = reordered[0]
            divergent_t = t
            note = ("every tick dispatched the same events; the first "
                    "perturbed reordering is the earliest candidate cause")
        else:
            before = [r for r in reordered if r[0] <= divergent_t]
            t, ga, gb = before[-1] if before else reordered[0]
        if pair is None:
            pair = _first_difference(ga, gb)
    if divergent_t is None:
        divergent_t = float("nan")
        note = "digests differ but dispatch logs are identical (racy " \
               "state outside the event system, e.g. iteration order)"
    return RaceReport(
        scenario=run_a.scenario,
        seeds=seeds,
        digests=digests,
        divergence_time=divergent_t,
        pair=pair,
        note=note,
    )
