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

This module is TSan for the DES.  A :class:`SanitizedEnvironment`
(built explicitly, or by every ``Environment()`` inside
:func:`sanitized`) breaks ties among same-timestamp events with a seeded
RNG instead of the arrival sequence.  Same-tick events are logically
*concurrent*: any dispatch order is a legal execution, so if two
perturbation seeds produce different scenario digests, the output
depends on something the simulation does not fix (RK310) — a
scheduling race, or a wall-clock read or unseeded RNG draw that reaches
the output, since the two runs read different values.  Each dispatch
is logged with the event's scheduling stack, so
:func:`diagnose_divergence` can report the colliding event pair and the
first divergent simulated timestamp.

The default ``Environment()`` path is untouched: sanitization swaps in
a subclass at construction time, so the unsanitized scheduler and
dispatch loops carry zero extra instructions (see
``bench_scaling_10k.py --quick``'s overhead guard).
"""

from __future__ import annotations

import hashlib
import heapq
import random
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Optional

from ..netsim.engine import (
    Event,
    InstrumentedEnvironment,
    Process,
    SimulationError,
    Timeout,
    instrumented,
)
from ..scenarios import SCENARIOS
from .diagnostics import Diagnostic, SourceLocation, code_info

__all__ = [
    "SanitizeOptions",
    "SanitizedEnvironment",
    "SanitizerSession",
    "sanitized",
    "DispatchRecord",
    "RaceReport",
    "ScenarioRun",
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


@cache  # resolving a path is file-system work, and the frames repeat
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

    __slots__ = ("options", "dispatch_log", "_pert", "_meta")

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
        if session is not None:
            session.envs.append(self)

    # -- scheduling with perturbed tie-breaks ------------------------------
    _INTERNAL_FRAMES = frozenset(
        {"_capture", "_schedule", "step"})

    def _capture(self) -> tuple[str, tuple[str, ...]]:
        """(site, stack) of the schedule call, machinery frames dropped."""
        raw = traceback.extract_stack()
        frames = [
            f for f in raw
            if "netsim/engine" not in f.filename.replace("\\", "/")
            and not (f.filename == _THIS_FILE
                     and f.name in self._INTERNAL_FRAMES)
        ]
        depth = _STACK_DEPTH if self.options.record_stacks else 1
        rendered = tuple(
            f"{_relpath(f.filename)}:{f.lineno} in {f.name}"
            for f in reversed(frames[-depth:])
        )
        site = rendered[0] if rendered else "<unknown>"
        return site, rendered if self.options.record_stacks else ()

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

    # -- dispatch with logging ---------------------------------------------
    def step(self) -> None:
        if not self._queue:
            raise SimulationError("no more events to step through")
        when, _, event = heapq.heappop(self._queue)
        meta = self._meta.pop(event, None)
        if event._cancelled:
            self._n_cancelled -= 1
            event._scheduled = False
            return
        self._now = when
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


# -- the session ------------------------------------------------------------------

_ACTIVE_SESSION: Optional["SanitizerSession"] = None


class SanitizerSession:
    """One sanitized region: its options and the environments it built."""

    def __init__(self, options: SanitizeOptions):
        self.options = options
        #: sanitized environments constructed while this session is active
        self.envs: list[SanitizedEnvironment] = []


@contextmanager
def sanitized(options: Optional[SanitizeOptions] = None):
    """Run a region under the sanitizer.

    Inside the block every ``Environment()`` constructed anywhere — in
    ``build_cluster``, ``run_storm``, a test fixture — becomes a
    :class:`SanitizedEnvironment` with the given options.  Yields the
    :class:`SanitizerSession` holding the per-environment dispatch logs.
    """
    global _ACTIVE_SESSION
    session = SanitizerSession(
        options if options is not None else SanitizeOptions())
    prev_session = _ACTIVE_SESSION
    _ACTIVE_SESSION = session
    try:
        with instrumented(SanitizedEnvironment):
            yield session
    finally:
        _ACTIVE_SESSION = prev_session


# -- scenarios --------------------------------------------------------------------


@dataclass
class ScenarioRun:
    """One scenario execution under one perturbation seed."""

    scenario: str
    perturb_seed: int
    digest: str
    output: str
    dispatch_log: list[DispatchRecord]


def run_scenario(name: str, perturb_seed: int,
                 nodes: Optional[int] = None,
                 record_stacks: bool = True) -> ScenarioRun:
    """Run one registry scenario under the sanitizer; digest its output."""
    scenario = SCENARIOS[name]
    opts = SanitizeOptions(seed=perturb_seed, record_stacks=record_stacks)
    with sanitized(opts) as session:
        output = scenario(nodes)
    log: list[DispatchRecord] = []
    for env in session.envs:
        log.extend(env.dispatch_log)
    return ScenarioRun(
        scenario=name,
        perturb_seed=perturb_seed,
        digest=hashlib.sha256(output.encode("utf-8")).hexdigest(),
        output=output,
        dispatch_log=log,
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
        note = "digests differ but dispatch logs are identical (state " \
               "outside the event system: a wall-clock read, an unseeded " \
               "RNG, or iteration order)"
    return RaceReport(
        scenario=run_a.scenario,
        seeds=seeds,
        digests=digests,
        divergence_time=divergent_t,
        pair=pair,
        note=note,
    )
