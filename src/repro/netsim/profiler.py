"""Engine self-profiler: where does the *wall* time of a run go?

Critical-path analysis (:mod:`repro.telemetry.critpath`) explains
simulated time; this module explains the simulator itself.  A
:class:`ProfiledEnvironment` counts events dispatched, heap pushes and
pops, bulk timeout batches, and fair-share refills, and attributes the
wall-clock time spent inside event callbacks to the *simulation code
site* that consumed it (the process generator a ``Process._resume``
drives, or the function a raw callback points at).

Opt-in and zero-overhead-when-off, through the engine's one
instrumentation hook (:func:`~repro.netsim.engine.instrumented`), which
the schedule sanitizer uses too: the default ``Environment()`` hot paths
(``_schedule``/``step``/``run``/``timeout_batch``) carry no profiler
branch at all — ``bench_scaling_10k.py --quick``'s overhead guard
asserts exactly that.  Build a ``ProfiledEnvironment()`` explicitly, or
profile scenarios that build their environments internally::

    with profiled() as session:
        result = run_storm(opts)
    print(session.render())

Wall-clock reads are the whole point here, so this module carries the
repo's only sanctioned ``perf_counter`` use (RK201 baseline entry);
profiler output is diagnostic and is never byte-compared in CI.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional

from .engine import (
    Event,
    InstrumentedEnvironment,
    Process,
    SimulationError,
    Timeout,
    instrumented,
)

__all__ = [
    "ProfileOptions",
    "EngineProfiler",
    "ProfiledEnvironment",
    "ProfileSession",
    "profiled",
]

_REPO_ROOT = Path(__file__).resolve().parents[3]


def _relpath(filename: str) -> str:
    try:
        return Path(filename).resolve().relative_to(_REPO_ROOT).as_posix()
    except ValueError:
        return filename


@dataclass(frozen=True)
class ProfileOptions:
    """What to collect.

    ``by_site`` controls per-callback-site wall attribution — the most
    useful view, but also the most expensive (one ``perf_counter`` pair
    per callback); turn it off to count events and heap traffic only.
    """

    by_site: bool = True


def _site_of(cb) -> str:
    """The simulation code a callback spends its wall time in.

    A ``Process._resume`` callback executes the process's *generator*,
    so the generator's code object is the honest attribution target —
    ``installer/anaconda.py:driver``, not ``engine.py:_resume``.
    """
    owner = getattr(cb, "__self__", None)
    if isinstance(owner, Process):
        code = owner.generator.gi_code
        return f"{_relpath(code.co_filename)}:{code.co_name}"
    func = getattr(cb, "__func__", cb)
    code = getattr(func, "__code__", None)
    if code is not None:
        return f"{_relpath(code.co_filename)}:{code.co_name}"
    return type(cb).__name__


class EngineProfiler:
    """Counters accumulated by one :class:`ProfiledEnvironment`."""

    def __init__(self, options: ProfileOptions, initial_time: float = 0.0):
        self.options = options
        self.events_dispatched = 0
        self.heap_pushes = 0
        self.heap_pops = 0
        self.timeout_batches = 0
        self.callback_wall_s = 0.0
        self.sim_t0 = initial_time
        self.sim_t1 = initial_time
        #: site -> [calls, wall seconds]
        self.by_site: dict[str, list] = {}
        self._networks: list = []

    # -- wiring ------------------------------------------------------------
    def note_network(self, network: Any) -> None:
        """Register a FlowNetwork so refill counts land in the report."""
        self._networks.append(network)

    @property
    def fair_share_refills(self) -> int:
        return sum(net.reallocations for net in self._networks)

    @property
    def sim_seconds(self) -> float:
        return self.sim_t1 - self.sim_t0

    # -- reporting ---------------------------------------------------------
    def report(self) -> dict:
        """Everything as plain data (wall figures are non-deterministic)."""
        sites = sorted(
            self.by_site.items(), key=lambda kv: (-kv[1][1], kv[0])
        )
        return {
            "events_dispatched": self.events_dispatched,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "timeout_batches": self.timeout_batches,
            "fair_share_refills": self.fair_share_refills,
            "sim_seconds": self.sim_seconds,
            "callback_wall_s": self.callback_wall_s,
            "sites": [
                {"site": site, "calls": calls, "wall_s": wall}
                for site, (calls, wall) in sites
            ],
        }

    def render(self, top: int = 10) -> str:
        lines = [
            f"engine profile: {self.events_dispatched} events dispatched",
            f"  heap: {self.heap_pushes} pushes, {self.heap_pops} pops, "
            f"{self.timeout_batches} bulk timeout batches",
            f"  fair-share refills: {self.fair_share_refills}",
            f"  simulated {self.sim_seconds:.1f} s in "
            f"{self.callback_wall_s:.3f} s of callback wall time",
        ]
        if self.by_site:
            lines.append("  hottest callback sites (wall seconds):")
            sites = sorted(
                self.by_site.items(), key=lambda kv: (-kv[1][1], kv[0])
            )
            for site, (calls, wall) in sites[:top]:
                lines.append(f"    {wall:9.4f}  {calls:>9} calls  {site}")
            if len(sites) > top:
                lines.append(f"    ({len(sites) - top} more sites)")
        return "\n".join(lines)


class ProfiledEnvironment(InstrumentedEnvironment):
    """An :class:`Environment` whose scheduling and dispatch are counted.

    Semantically identical to the base environment — same event order,
    same sequence numbers, same simulated results — it only adds
    counters and (optionally) a ``perf_counter`` pair around each
    callback.  The overhead lives entirely in this subclass; plain
    environments never pay it.  ``options`` defaults to the active
    :func:`profiled` session's, or to ``ProfileOptions()`` outside one.
    """

    __slots__ = ("profile",)

    def __init__(self, initial_time: float = 0.0,
                 options: Optional[ProfileOptions] = None):
        session = _ACTIVE_SESSION
        if options is None:
            options = (session.options if session is not None
                       else ProfileOptions())
        super().__init__(initial_time)
        self.profile = EngineProfiler(options, initial_time)
        if session is not None:
            session.envs.append(self)

    # -- counted scheduling ------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self.profile.heap_pushes += 1
        super()._schedule(event, delay)

    def timeout_batch(self, delays: Iterable[float],
                      value: Any = None) -> list[Timeout]:
        out = super().timeout_batch(delays, value)
        self.profile.heap_pushes += len(out)
        self.profile.timeout_batches += 1
        return out

    # -- counted dispatch --------------------------------------------------
    def step(self) -> None:
        if not self._queue:
            raise SimulationError("no more events to step through")
        prof = self.profile
        when, _, event = heapq.heappop(self._queue)
        prof.heap_pops += 1
        self._now = when
        if event._cancelled:
            self._n_cancelled -= 1
            event._scheduled = False
            return
        callbacks, event.callbacks = event.callbacks, []
        event._scheduled = False
        self.events_dispatched += 1
        prof.events_dispatched += 1
        prof.sim_t1 = when
        if prof.options.by_site:
            perf = time.perf_counter
            by_site = prof.by_site
            for cb in callbacks:
                t0 = perf()
                cb(event)
                dt = perf() - t0
                prof.callback_wall_s += dt
                site = _site_of(cb)
                stat = by_site.get(site)
                if stat is None:
                    by_site[site] = [1, dt]
                else:
                    stat[0] += 1
                    stat[1] += dt
        else:
            for cb in callbacks:
                cb(event)


class ProfileSession:
    """Collects the profilers of every environment built inside a
    :func:`profiled` block (scenarios usually build exactly one)."""

    def __init__(self, options: ProfileOptions):
        self.options = options
        self.envs: list[ProfiledEnvironment] = []

    @property
    def profilers(self) -> list[EngineProfiler]:
        return [env.profile for env in self.envs]

    def render(self, top: int = 10) -> str:
        if not self.envs:
            return "engine profile: no environments were built"
        return "\n".join(p.render(top=top) for p in self.profilers)


_ACTIVE_SESSION: Optional[ProfileSession] = None


@contextmanager
def profiled(options: Optional[ProfileOptions] = None):
    """Ambiently profile every Environment built inside the block.

    Mirrors :func:`repro.analysis.sanitizer.sanitized`: internally
    constructed environments (``build_cluster``, ``run_storm``) come out
    as :class:`ProfiledEnvironment`, and the yielded session holds their
    profilers.  If a sanitizer session is also active, the sanitizer
    wins — its subclass carries the diagnostic machinery.
    """
    global _ACTIVE_SESSION
    session = ProfileSession(options or ProfileOptions())
    prev_session = _ACTIVE_SESSION
    _ACTIVE_SESSION = session
    try:
        with instrumented(ProfiledEnvironment):
            yield session
    finally:
        _ACTIVE_SESSION = prev_session
